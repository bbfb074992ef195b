//go:build !unix

package serve

type udpPoll struct{}

// drain refills the empty queue with one datagram; without a
// non-blocking receive there is no taking what the socket already
// holds, so every batch is one datagram.
func (u *UDPSource) drain(wait bool) error {
	u.queue, u.head = u.queue[:0], 0
	if !wait {
		return nil
	}
	n, err := u.conn.Read(u.buf)
	if err != nil {
		return err
	}
	u.enqueue(u.buf[:n])
	return nil
}

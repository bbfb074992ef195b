//go:build unix

package serve

import "syscall"

// udpPoll is the drain's standing state, so that a drain — one per
// packet under light traffic — allocates nothing.
type udpPoll struct {
	rc   syscall.RawConn
	recv func(fd uintptr) bool // u.receive, bound once
	wait bool
	err  error
}

// drain refills the empty queue from the socket: every datagram the
// socket holds, up to the queue's capacity, in one visit to the network
// poller. With wait, it first blocks there until the socket is
// readable.
func (u *UDPSource) drain(wait bool) error {
	if u.poll.rc == nil {
		rc, err := u.conn.SyscallConn()
		if err != nil {
			return err
		}
		u.poll.rc, u.poll.recv = rc, u.receive
	}
	u.queue, u.head, u.more = u.queue[:0], 0, false
	u.poll.wait, u.poll.err = wait, nil
	if err := u.poll.rc.Read(u.poll.recv); err != nil {
		return err
	}
	return u.poll.err
}

// receive runs inside RawConn.Read: returning false parks the goroutine
// in the poller until the socket is readable, then it runs again.
func (u *UDPSource) receive(fd uintptr) bool {
	for len(u.queue) < cap(u.queue) {
		// The runtime keeps the socket non-blocking; read(2) takes one
		// datagram and, unlike recvfrom, allocates no address.
		n, err := syscall.Read(int(fd), u.buf)
		switch err {
		case nil:
			u.enqueue(u.buf[:n])
		case syscall.EINTR:
		case syscall.EAGAIN:
			// Empty socket. Wait for it only with nothing to serve.
			return !u.poll.wait || len(u.queue) > 0
		default:
			// Serve what was taken first; a failure that lasts is met
			// again by the next drain.
			if len(u.queue) == 0 {
				u.poll.err = err
			}
			return true
		}
	}
	u.more = true
	return true
}

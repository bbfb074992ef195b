package serve

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"

	"nfactor/internal/netpkt"
)

// udpBurst is how many parsed packets one drain of the socket holds:
// the default maximum batch.
const udpBurst = 64

// UDPSource serves one trace line per UDP datagram. It waits in the
// network poller for the first datagram and then takes everything the
// socket already holds, without waiting, into a queue of parsed packets
// that Next serves from (see drain; where the platform has no
// non-blocking receive, a drain is one datagram). Blank and comment
// datagrams are skipped; malformed ones are counted and skipped. Close
// makes Next report exhaustion once the queue is served.
type UDPSource struct {
	conn *net.UDPConn
	buf  []byte
	// queue[head:] are the parsed packets not yet served. more is set
	// when the last drain stopped because the queue was full, not
	// because the socket was empty.
	queue     []netpkt.Packet
	head      int
	more      bool
	poll      udpPoll
	malformed atomic.Int64
}

// NewUDPSource listens on addr (e.g. ":9099").
func NewUDPSource(addr string) (*UDPSource, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	return &UDPSource{conn: conn, buf: make([]byte, maxLine), queue: make([]netpkt.Packet, 0, udpBurst)}, nil
}

// Addr returns the bound listen address.
func (u *UDPSource) Addr() net.Addr { return u.conn.LocalAddr() }

// Close unblocks a pending read and exhausts the source.
func (u *UDPSource) Close() error { return u.conn.Close() }

// Malformed returns how many datagrams failed to parse so far.
func (u *UDPSource) Malformed() int64 { return u.malformed.Load() }

func (u *UDPSource) Next(p *netpkt.Packet) (bool, error) {
	for u.head == len(u.queue) {
		if err := u.drain(true); errors.Is(err, net.ErrClosed) {
			return false, nil
		} else if err != nil {
			return false, fmt.Errorf("serve: udp receive: %w", err)
		}
	}
	*p = u.queue[u.head]
	u.head++
	return true, nil
}

// Pending reports whether a parsed packet is queued. An empty queue is
// topped up without waiting only if the last drain left datagrams in
// the socket; otherwise the socket was empty a moment ago and whatever
// has arrived since opens the next batch.
func (u *UDPSource) Pending() bool {
	if u.head == len(u.queue) && u.more {
		// A receive error is met again, and reported, by Next.
		_ = u.drain(false)
	}
	return u.head < len(u.queue)
}

// enqueue parses one datagram into the queue.
func (u *UDPSource) enqueue(line []byte) {
	if isSkippable(line) {
		return
	}
	pkt, err := netpkt.ParseLine(string(line))
	if err != nil {
		u.malformed.Add(1)
		return
	}
	u.queue = append(u.queue, pkt)
}

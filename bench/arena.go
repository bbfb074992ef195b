//go:build unix

package main

import (
	"syscall"
	"unsafe"

	"nfactor/internal/netpkt"
)

// arena holds the benchmark's bulk inputs — traces and reference
// verdicts, some hundred thousand packets of six strings each — in
// memory the garbage collector neither scans nor frees. Left on the
// heap they are most of what lives there, every collection the program
// provokes walks them, and so the cost of an allocation in the program
// under test depends on the size of the harness's traces: a swap pause
// or a synthesis round that meets a collection takes half as long again
// as one that does not. Off the heap, a collection costs what the
// program's own heap makes it cost.
//
// The memory is mapped and never unmapped, so a string the program
// keeps from a packet stays valid for the life of the process. Nothing
// in an arena points into the Go heap: every string is copied in.
type arena struct {
	free []byte
}

const arenaChunk = 16 << 20

var offHeap = &arena{}

// interned maps a string to its copy in the arena: a trace repeats its
// addresses, and the packets of one flow share them as they did on the
// heap.
type interned map[string]string

func (a *arena) alloc(n int) unsafe.Pointer {
	n = (n + 7) &^ 7
	if n > len(a.free) {
		size := arenaChunk
		if n > size {
			size = n
		}
		mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("bench: mmap: " + err.Error())
		}
		a.free = mem
	}
	p := unsafe.Pointer(&a.free[0])
	a.free = a.free[n:]
	return p
}

func (a *arena) str(s string, seen interned) string {
	if s == "" {
		return ""
	}
	if t, ok := seen[s]; ok {
		return t
	}
	p := (*byte)(a.alloc(len(s)))
	copy(unsafe.Slice(p, len(s)), s)
	t := unsafe.String(p, len(s))
	seen[t] = t
	return t
}

// packets copies src into the arena.
func (a *arena) packets(src []netpkt.Packet) []netpkt.Packet {
	return a.copyPackets(src, interned{})
}

func (a *arena) copyPackets(src []netpkt.Packet, seen interned) []netpkt.Packet {
	if len(src) == 0 {
		return nil
	}
	dst := unsafe.Slice((*netpkt.Packet)(a.alloc(len(src)*int(unsafe.Sizeof(netpkt.Packet{})))), len(src))
	for i, p := range src {
		p.SrcIP, p.DstIP, p.Proto = a.str(p.SrcIP, seen), a.str(p.DstIP, seen), a.str(p.Proto, seen)
		p.Flags, p.Payload, p.InIface = a.str(p.Flags, seen), a.str(p.Payload, seen), a.str(p.InIface, seen)
		dst[i] = p
	}
	return dst
}

// verdicts copies src into the arena.
func (a *arena) verdicts(src []netpkt.Verdict) []netpkt.Verdict {
	if len(src) == 0 {
		return nil
	}
	seen := interned{}
	dst := unsafe.Slice((*netpkt.Verdict)(a.alloc(len(src)*int(unsafe.Sizeof(netpkt.Verdict{})))), len(src))
	for i, v := range src {
		dst[i] = netpkt.Verdict{Dropped: v.Dropped, Sent: a.copyPackets(v.Sent, seen)}
		if len(v.Ifaces) > 0 {
			ifaces := unsafe.Slice((*string)(a.alloc(len(v.Ifaces)*int(unsafe.Sizeof("")))), len(v.Ifaces))
			for j, s := range v.Ifaces {
				ifaces[j] = a.str(s, seen)
			}
			dst[i].Ifaces = ifaces
		}
	}
	return dst
}

// lines copies src into the arena.
func (a *arena) lines(src [][]byte) [][]byte {
	if len(src) == 0 {
		return nil
	}
	dst := unsafe.Slice((*[]byte)(a.alloc(len(src)*int(unsafe.Sizeof([]byte(nil))))), len(src))
	for i, l := range src {
		if len(l) == 0 {
			continue
		}
		p := (*byte)(a.alloc(len(l)))
		dst[i] = unsafe.Slice(p, len(l))
		copy(dst[i], l)
	}
	return dst
}

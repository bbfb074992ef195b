//go:build !unix

package main

import "nfactor/internal/netpkt"

// Without mmap the bulk inputs stay on the Go heap; see arena.go.
type arena struct{}

var offHeap = &arena{}

func (*arena) packets(src []netpkt.Packet) []netpkt.Packet    { return src }
func (*arena) verdicts(src []netpkt.Verdict) []netpkt.Verdict { return src }
func (*arena) lines(src [][]byte) [][]byte                    { return src }

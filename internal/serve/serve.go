// Package serve is the live serving surface of nfactor: a long-running
// loop that pulls packets from a Source, pushes per-packet verdicts to
// a Sink, and can hot-swap the running engine for a freshly
// re-synthesized generation without restarting — with per-packet
// generation consistency (every packet observes a consistently-old or
// consistently-new engine, never a mix; Output epochs prove it), state
// carry-over for session state that survives the model change, and a
// differential gate that refuses a swap whose candidate diverges from
// the running generation over a window of recently served traffic.
//
// It also defines the Replayer/Explainer interfaces the root facade
// re-exports: the one replay surface every execution backend — original
// program, model instance, compiled engine, sharded engine, fused chain
// — satisfies.
package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"nfactor/internal/netpkt"
	"nfactor/internal/telemetry"
)

// Replayer is the unified replay surface: every execution engine
// processes packets one at a time with evolving state and exports the
// same telemetry Snapshot. Replayers are single-goroutine objects.
type Replayer interface {
	// Process runs one packet and returns its verdict. State evolves
	// across calls.
	Process(*netpkt.Packet) (netpkt.Verdict, error)
	// Snapshot exports the telemetry accumulated so far.
	Snapshot() telemetry.Snapshot
}

// Explainer is the optional provenance extension of Replayer: table
// backends (model, compiled, sharded, chain) can explain each verdict
// with the full guard trail. The program backend does not implement it
// (the original source has no match/action table to trace).
type Explainer interface {
	// ProcessExplain is Process plus the packet's why-trace. It counts
	// in the same telemetry as Process.
	ProcessExplain(*netpkt.Packet) (netpkt.Verdict, *telemetry.PacketTrace, error)
}

// --- sources ----------------------------------------------------------

// Source feeds packets to a Server. Implementations are read from a
// single goroutine (the serving loop).
//
// A source whose Next can wait (a socket, a pipe, a pacer) may also
// implement
//
//	Pending() bool
//
// reporting whether Next would return without waiting. The loop blocks
// in Next for a batch's first packet and then takes only what is
// pending, so a verdict never waits for packets that have not arrived.
// A source without the method is taken to never wait: its batches fill
// to the maximum.
type Source interface {
	// Next fills p with the next packet to serve. ok=false means the
	// source is exhausted and the server stops cleanly, or, with a
	// non-nil error, that the source failed: the server drains and Run
	// returns the error. A non-nil error with ok=true reports a
	// malformed input that was skipped.
	Next(p *netpkt.Packet) (ok bool, err error)
}

// pender is the optional half of the Source contract.
type pender interface{ Pending() bool }

// TraceSource serves a fixed trace, once or looping forever. It never
// waits, so it has no Pending: its batches are full.
type TraceSource struct {
	trace []netpkt.Packet
	loop  bool
	limit int64 // max packets to emit (0: len(trace) once, or forever when looping)
	at    int64
}

// NewTraceSource serves trace once. With loop, it restarts from the top
// after the last packet until limit packets have been emitted
// (limit 0: forever).
func NewTraceSource(trace []netpkt.Packet, loop bool, limit int64) *TraceSource {
	return &TraceSource{trace: trace, loop: loop, limit: limit}
}

func (t *TraceSource) Next(p *netpkt.Packet) (bool, error) {
	if len(t.trace) == 0 || (t.limit > 0 && t.at >= t.limit) {
		return false, nil
	}
	if !t.loop && t.at >= int64(len(t.trace)) {
		return false, nil
	}
	*p = t.trace[t.at%int64(len(t.trace))]
	t.at++
	return true, nil
}

// PacedSource rate-limits another source to a target packets-per-second
// budget, so a looping trace can stand in for live traffic (the CI
// smoke daemon serves a bounded trace for tens of seconds instead of
// draining it in milliseconds). Pacing is token-bucket style against
// the wall clock: Next sleeps only when the loop runs ahead of budget,
// so a slow inner source never accumulates a burst debt larger than
// one second of traffic.
type PacedSource struct {
	src   Source
	pps   float64
	start time.Time
	sent  int64
}

// NewPacedSource paces src at pps packets per second (pps <= 0 means
// no pacing).
func NewPacedSource(src Source, pps float64) *PacedSource {
	return &PacedSource{src: src, pps: pps}
}

// due is when the next packet may go out.
func (ps *PacedSource) due() time.Time {
	return ps.start.Add(time.Duration(float64(ps.sent) / ps.pps * float64(time.Second)))
}

func (ps *PacedSource) Next(p *netpkt.Packet) (bool, error) {
	if ps.pps > 0 {
		if ps.start.IsZero() {
			ps.start = time.Now()
		}
		if d := time.Until(ps.due()); d > 0 {
			time.Sleep(d)
		} else if d < -time.Second {
			// Ran behind by over a second (stalled inner source, paused
			// process): forgive the debt instead of bursting to catch up.
			ps.start = time.Now()
			ps.sent = 0
		}
	}
	ok, err := ps.src.Next(p)
	if ok {
		ps.sent++
	}
	return ok, err
}

// Pending reports whether the next packet is already due (and the inner
// source would not wait for it): a packet is served when its time
// comes, not when a batch's worth of them has come due.
func (ps *PacedSource) Pending() bool {
	if ps.pps > 0 && !ps.start.IsZero() && time.Until(ps.due()) > 0 {
		return false
	}
	if in, ok := ps.src.(pender); ok {
		return in.Pending()
	}
	return true
}

// maxLine bounds a trace line read from a stream or a datagram.
const maxLine = 64 * 1024

var errLineTooLong = fmt.Errorf("trace line longer than %d bytes", maxLine)

// ReaderSource parses trace lines (netpkt.ParseLine) from a stream —
// stdin, a file, a pipe. Blank lines and '#' comments are skipped;
// malformed lines, and lines over 64 KiB, are counted and skipped.
type ReaderSource struct {
	br        *bufio.Reader
	err       error // what ended the stream: io.EOF or a read failure
	malformed atomic.Int64
}

// NewReaderSource wraps r in a line reader.
func NewReaderSource(r io.Reader) *ReaderSource {
	return &ReaderSource{br: bufio.NewReaderSize(r, maxLine)}
}

// Malformed returns how many lines failed to parse so far.
func (r *ReaderSource) Malformed() int64 { return r.malformed.Load() }

func (r *ReaderSource) Next(p *netpkt.Packet) (bool, error) {
	for r.err == nil {
		var line []byte
		line, r.err = r.br.ReadSlice('\n')
		if r.err == bufio.ErrBufferFull {
			for r.err == bufio.ErrBufferFull { // discard the rest of the line
				_, r.err = r.br.ReadSlice('\n')
			}
			r.malformed.Add(1)
			return true, errLineTooLong
		}
		if r.err != nil && r.err != io.EOF {
			break // a line cut short by a failure is not a line
		}
		if isSkippable(line) {
			continue
		}
		pkt, err := netpkt.ParseLine(string(line))
		if err != nil {
			r.malformed.Add(1)
			return true, err
		}
		*p = pkt
		return true, nil
	}
	if r.err == io.EOF {
		return false, nil
	}
	return false, fmt.Errorf("serve: reading trace lines: %w", r.err)
}

// Pending reports whether a complete packet line is already buffered,
// so a verdict comes back for each line typed or piped, not after the
// batch fills. Buffered blank and comment lines are consumed on the
// way: Next would skip them and then wait.
func (r *ReaderSource) Pending() bool {
	for {
		buf, _ := r.br.Peek(r.br.Buffered())
		end := bytes.IndexByte(buf, '\n')
		if end < 0 {
			return false
		}
		if !isSkippable(buf[:end]) {
			return true
		}
		r.br.Discard(end + 1)
	}
}

func isSkippable(line []byte) bool {
	for _, c := range line {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		case '#':
			return true
		default:
			return false
		}
	}
	return true
}

// --- sinks ------------------------------------------------------------

// Sink receives each served packet's outcome, in serving order, from
// the serving goroutine.
//
// A sink that buffers may also implement
//
//	Flush() error
//
// which the loop calls at the end of every batch and when Run returns.
// Batches are what was ready, so that is at once under light traffic
// and amortized under load.
type Sink interface {
	Emit(seq int64, p *netpkt.Packet, o *Outcome) error
}

// flusher is the optional half of the Sink contract.
type flusher interface{ Flush() error }

// SinkFunc adapts a function to Sink.
type SinkFunc func(seq int64, p *netpkt.Packet, o *Outcome) error

// Emit calls f.
func (f SinkFunc) Emit(seq int64, p *netpkt.Packet, o *Outcome) error { return f(seq, p, o) }

// WriterSink renders verdict lines in nfreplay's replay format. Lines
// are buffered until Flush.
type WriterSink struct{ bw *bufio.Writer }

// NewWriterSink renders verdict lines to w.
func NewWriterSink(w io.Writer) *WriterSink { return &WriterSink{bw: bufio.NewWriter(w)} }

func (s *WriterSink) Emit(seq int64, p *netpkt.Packet, o *Outcome) error {
	_, err := fmt.Fprintf(s.bw, "%6d  %-55s %s\n", seq, p, o.Verdict)
	return err
}

// Flush writes the buffered lines out.
func (s *WriterSink) Flush() error { return s.bw.Flush() }

// Discard drops every outcome (benchmarks, smoke runs with -q).
var Discard Sink = SinkFunc(func(int64, *netpkt.Packet, *Outcome) error { return nil })

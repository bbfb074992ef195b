package serve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"sort"
	"testing"
	"time"

	"nfactor/internal/netpkt"
)

// The loop takes what is ready: these tests pin both halves of that
// rule — a verdict never waits for packets that have not arrived, and
// packets that have arrived are still served together.

// --- helpers ----------------------------------------------------------

// signalSink records like recordSink and announces every Emit, so a
// test waits for a verdict instead of sleeping. The recorded slices are
// read only after Run has returned.
type signalSink struct {
	recordSink
	emitted chan int64 // sized to the test's traffic: the loop never blocks on it
	onEmit  func(seq int64)
}

func newSignalSink() *signalSink { return &signalSink{emitted: make(chan int64, 4096)} }

func (s *signalSink) Emit(seq int64, p *netpkt.Packet, o *Outcome) error {
	s.recordSink.Emit(seq, p, o)
	if s.onEmit != nil {
		s.onEmit(seq)
	}
	s.emitted <- seq
	return nil
}

// await returns once packet seq has been emitted.
func (s *signalSink) await(t *testing.T, seq int64, within time.Duration) {
	t.Helper()
	timeout := time.After(within)
	for {
		select {
		case got := <-s.emitted:
			if got >= seq {
				return
			}
		case <-timeout:
			t.Fatalf("packet %d not answered within %s", seq, within)
		}
	}
}

// udpPair opens a UDPSource on loopback and a socket connected to it.
func udpPair(t *testing.T) (*UDPSource, net.Conn) {
	t.Helper()
	src, err := NewUDPSource("127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	t.Cleanup(func() { src.Close() })
	conn, err := net.Dial("udp", src.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return src, conn
}

func send(t *testing.T, conn net.Conn, line string) {
	t.Helper()
	if _, err := conn.Write([]byte(line)); err != nil {
		t.Fatal(err)
	}
}

func checkServedInOrder(t *testing.T, got, want []netpkt.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("served %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("packet %d = %s, want %s (lost, repeated or reordered)", i, &got[i], &want[i])
		}
	}
}

// nextOnly hides everything but Next: a third-party Source.
type nextOnly struct{ Source }

// neverPending makes every batch one packet.
type neverPending struct{ Source }

func (neverPending) Pending() bool { return false }

// --- the loop ---------------------------------------------------------

// TestUDPSingleDatagramAnswered: at the default maximum batch of 64, a
// lone datagram gets its verdict at once instead of waiting for 63
// more.
func TestUDPSingleDatagramAnswered(t *testing.T) {
	src, conn := udpPair(t)
	sink := newSignalSink()
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{Source: src, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	done := runServer(srv)
	send(t, conn, netpkt.FormatLine(firewallTrace(1)[0]))
	sink.await(t, 1, 250*time.Millisecond)
	src.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Packets != 1 || st.Batches != 1 || st.FullBatches != 0 {
		t.Errorf("stats = %s", st.Report())
	}
}

// TestUDPQueuedBurstAmortized: datagrams that are already in the socket
// when the loop gets to them are served in a few large batches, with
// blank, comment and malformed datagrams among them skipped in place.
func TestUDPQueuedBurstAmortized(t *testing.T) {
	src, conn := udpPair(t)
	trace := firewallTrace(200)
	for i := range trace {
		switch i % 50 {
		case 7:
			send(t, conn, "garbage datagram")
		case 19:
			send(t, conn, "# a comment")
		case 31:
			send(t, conn, "")
		}
		send(t, conn, netpkt.FormatLine(trace[i]))
	}

	sink := newSignalSink()
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{Source: src, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	done := runServer(srv)
	sink.await(t, int64(len(trace)), 5*time.Second)
	src.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkServedInOrder(t, sink.pkts, trace)
	if st := srv.Stats(); st.Batches > 6 {
		t.Errorf("%d queued datagrams took %d batches, want <= 6: %s", len(trace), st.Batches, st.Report())
	}
	if src.Malformed() != 4 {
		t.Errorf("malformed = %d, want 4", src.Malformed())
	}
}

// TestSourceWithoutPendingFillsBatches: a Source that has only Next
// never waits as far as the loop can tell, and is batched as it always
// was.
func TestSourceWithoutPendingFillsBatches(t *testing.T) {
	const n = 200
	sink := &recordSink{}
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{
		Source: nextOnly{NewTraceSource(firewallTrace(n), false, 0)},
		Sink:   sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.Packets != n || st.Batches != (n+63)/64 || st.FullBatches != n/64 {
		t.Errorf("stats = %s, want %d batches, %d of them full", st.Report(), (n+63)/64, n/64)
	}
}

// TestSwapUnderUDPLoadPartialBatches hot-swaps while datagrams arrive
// in bursts of 1 to 7, so every batch is partial and the barrier comes
// round after every burst: still exactly one monotone epoch transition,
// at or after the swap point, and every datagram answered once, in
// order.
func TestSwapUnderUDPLoadPartialBatches(t *testing.T) {
	const n, swapAt = 600, 300
	src, conn := udpPair(t)
	sink := newSignalSink()
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{Source: src, Sink: sink, WindowSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	done := runServer(srv)
	ch := srv.RequestSwap(SwapRequest{
		Candidate:           Candidate{Analysis: firewallExtraRule(t), Name: "firewall+8080-rule"},
		AllowBehaviorChange: true,
		AfterPackets:        swapAt,
	})

	trace := firewallTrace(n)
	for sent, burst := 0, 1; sent < n; burst = burst%7 + 1 {
		for k := 0; k < burst && sent < n; k++ {
			send(t, conn, netpkt.FormatLine(trace[sent]))
			sent++
		}
		sink.await(t, int64(sent), 5*time.Second) // closed loop: nothing is dropped by a full socket
	}
	rep := <-ch
	src.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if rep.Blocked {
		t.Fatalf("swap blocked: %s", rep.Reason)
	}
	checkServedInOrder(t, sink.pkts, trace)
	checkEpochStream(t, sink.epochs, 1, 1)
	if sink.epochs[swapAt-1] != 1 || sink.epochs[n-1] != 2 {
		t.Errorf("epochs: packet %d on %d, last on %d; want 1 then 2", swapAt, sink.epochs[swapAt-1], sink.epochs[n-1])
	}
	st := srv.Stats()
	if st.EpochViolations != 0 || st.Swaps != 1 || st.Packets != n {
		t.Errorf("stats = %s", st.Report())
	}
	if st.FullBatches != 0 || st.Batches < n/7 {
		t.Errorf("bursts of <= 7 were not served as partial batches: %s", st.Report())
	}
}

// TestUDPCloseExhaustsCleanly: Close ends Run without an error whether
// the loop is parked waiting for a datagram or in the middle of taking
// a burst.
func TestUDPCloseExhaustsCleanly(t *testing.T) {
	an := analyzeNF(t, "firewall")
	t.Run("waiting", func(t *testing.T) {
		src, conn := udpPair(t)
		sink := newSignalSink()
		srv, err := New(Candidate{Analysis: an}, Config{Source: src, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		done := runServer(srv)
		// Once the only datagram is answered the loop has nothing to do
		// but wait for the next.
		send(t, conn, netpkt.FormatLine(firewallTrace(1)[0]))
		sink.await(t, 1, 5*time.Second)
		src.Close()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
	t.Run("draining", func(t *testing.T) {
		src, conn := udpPair(t)
		trace := firewallTrace(150)
		for i := range trace {
			send(t, conn, netpkt.FormatLine(trace[i]))
		}
		// The first Emit comes with one drain taken and more than one
		// still in the socket.
		sink := newSignalSink()
		sink.onEmit = func(seq int64) {
			if seq == 1 {
				src.Close()
			}
		}
		srv, err := New(Candidate{Analysis: an}, Config{Source: src, Sink: sink})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Run(); err != nil {
			t.Fatal(err)
		}
		if len(sink.pkts) == 0 || len(sink.pkts) >= len(trace) {
			t.Fatalf("served %d of %d datagrams; want what was taken before Close and no more", len(sink.pkts), len(trace))
		}
		checkServedInOrder(t, sink.pkts, trace[:len(sink.pkts)])
	})
}

// stampSource notes when each packet left it.
type stampSource struct {
	Source
	released []time.Time
}

func (s *stampSource) Next(p *netpkt.Packet) (bool, error) {
	ok, err := s.Source.Next(p)
	if ok {
		s.released = append(s.released, time.Now())
	}
	return ok, err
}

// TestPacedSourceServesPacketsAsTheyComeDue: at 1000 pps a packet is
// released every millisecond, and its verdict follows at once — not
// when the 64th after it has come due.
func TestPacedSourceServesPacketsAsTheyComeDue(t *testing.T) {
	const n, pps = 200, 1000.0
	inner := &stampSource{Source: NewTraceSource(firewallTrace(n), false, 0)}
	var emitted []time.Time
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{
		Source: NewPacedSource(inner, pps),
		Sink: SinkFunc(func(int64, *netpkt.Packet, *Outcome) error {
			emitted = append(emitted, time.Now())
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	if len(emitted) != n {
		t.Fatalf("served %d packets, want %d", len(emitted), n)
	}
	lat := make([]time.Duration, n)
	for i := range lat {
		lat[i] = emitted[i].Sub(inner.released[i])
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	interArrival := time.Duration(float64(time.Second) / pps)
	if median := lat[n/2]; median > interArrival/4 {
		t.Errorf("median release-to-verdict latency %s at %.0f pps, want well under the %s between packets", median, pps, interArrival)
	}
	if st := srv.Stats(); st.Batches < n/2 {
		t.Errorf("paced packets were held back into batches: %s", st.Report())
	}
}

// TestReaderSourceAnswersEachLine: a line written to a pipe gets its
// verdict without the pipe being closed or 63 more lines following, and
// lines written together are served together.
func TestReaderSourceAnswersEachLine(t *testing.T) {
	pr, pw := io.Pipe()
	sink := newSignalSink()
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{Source: NewReaderSource(pr), Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	done := runServer(srv)
	trace := firewallTrace(4)
	fmt.Fprintf(pw, "%s\n", netpkt.FormatLine(trace[0]))
	sink.await(t, 1, 5*time.Second)
	fmt.Fprintf(pw, "# three at once\n%s\n\n%s\n%s\n",
		netpkt.FormatLine(trace[1]), netpkt.FormatLine(trace[2]), netpkt.FormatLine(trace[3]))
	sink.await(t, 4, 5*time.Second)
	pw.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	checkServedInOrder(t, sink.pkts, trace)
	if st := srv.Stats(); st.Batches != 2 {
		t.Errorf("one line, then three in one write: %d batches, want 2: %s", st.Batches, st.Report())
	}
}

// TestOnePacketBatchesAllocateNoMore: a barrier after every packet must
// cost no allocation the barrier after every 64th did not — the stats
// are copied out, the snapshots are on a wall-clock budget.
func TestOnePacketBatchesAllocateNoMore(t *testing.T) {
	an := analyzeNF(t, "firewall")
	trace := firewallTrace(2048)
	serveAll := func(wrap func(Source) Source, wantBatches int64) func() {
		return func() {
			srv, err := New(Candidate{Analysis: an}, Config{Source: wrap(NewTraceSource(trace, false, 0))})
			if err != nil {
				t.Fatal(err)
			}
			if err := srv.Run(); err != nil {
				t.Fatal(err)
			}
			if st := srv.Stats(); st.Batches != wantBatches {
				t.Fatalf("served in %d batches, want %d", st.Batches, wantBatches)
			}
		}
	}
	full := testing.AllocsPerRun(5, serveAll(func(s Source) Source { return s }, int64(len(trace)/64)))
	single := testing.AllocsPerRun(5, serveAll(func(s Source) Source { return neverPending{s} }, int64(len(trace))))
	// A run that straddles a snapshot refresh pays for one; nothing may
	// scale with the 2016 extra barriers.
	if single > full+32 {
		t.Errorf("%d one-packet batches: %.0f allocations, %d full batches: %.0f", len(trace), single, len(trace)/64, full)
	}
}

// TestWriterSinkFlushesPerBatch: verdict lines reach the writer once
// per batch, not once per packet, and all of them by the time Run
// returns.
func TestWriterSinkFlushesPerBatch(t *testing.T) {
	var out countingWriter
	srv, err := New(Candidate{Analysis: analyzeNF(t, "firewall")}, Config{
		Source: NewTraceSource(firewallTrace(200), false, 0),
		Sink:   NewWriterSink(&out),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Run(); err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(out.buf.Bytes(), []byte("\n")); lines != 200 {
		t.Errorf("%d verdict lines written, want 200", lines)
	}
	// 4 batches; a batch of 64 lines overflows the 4 KiB buffer once.
	if out.writes > 8 {
		t.Errorf("%d writes for 200 packets in 4 batches", out.writes)
	}
}

type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestSinkCounts(t *testing.T) {
	s := NewSink(3)
	s.Count(time.Time{}, 0, false, false) // forward via entry 0
	s.Count(time.Time{}, 0, false, false)
	s.Count(time.Time{}, 2, true, false)  // explicit drop entry
	s.Count(time.Time{}, -1, true, false) // implicit default drop
	s.Count(time.Time{}, 1, false, true)  // error (entry ignored)

	snap := s.Snapshot("model", map[string]int{"nat": 4})
	if snap.Packets != 5 || snap.Forwards != 2 || snap.Drops != 2 || snap.Errors != 1 {
		t.Fatalf("verdict counters wrong: %+v", snap)
	}
	if snap.DefaultDrops != 1 {
		t.Fatalf("DefaultDrops = %d, want 1", snap.DefaultDrops)
	}
	if snap.EntryHits[0] != 2 || snap.EntryHits[1] != 0 || snap.EntryHits[2] != 1 {
		t.Fatalf("entry hits wrong: %v", snap.EntryHits)
	}
	if snap.StateSizes["nat"] != 4 {
		t.Fatalf("state sizes wrong: %v", snap.StateSizes)
	}
	if snap.Packets != snap.Forwards+snap.Drops+snap.Errors {
		t.Fatalf("verdicts do not partition packets: %+v", snap)
	}
}

func TestSinkNil(t *testing.T) {
	var s *Sink
	t0 := s.Start()
	if !t0.IsZero() {
		t.Fatal("nil sink sampled a timestamp")
	}
	s.Count(t0, 0, false, false) // must not panic
	s.Reset()
	snap := s.Snapshot("compiled", nil)
	if snap.Packets != 0 {
		t.Fatalf("nil sink counted packets: %+v", snap)
	}
}

func TestSinkSampling(t *testing.T) {
	s := NewSink(1)
	s.SetSampleEvery(1)
	for i := 0; i < 10; i++ {
		t0 := s.Start()
		if t0.IsZero() {
			t.Fatalf("packet %d not sampled at SampleEvery(1)", i)
		}
		s.Count(t0, 0, false, false)
	}
	if s.lat.Samples != 10 {
		t.Fatalf("got %d latency samples, want 10", s.lat.Samples)
	}

	s = NewSink(1)
	s.SetSampleEvery(4)
	sampled := 0
	for i := 0; i < 16; i++ {
		if !s.Start().IsZero() {
			sampled++
		}
	}
	if sampled != 4 {
		t.Fatalf("got %d sampled of 16 at SampleEvery(4), want 4", sampled)
	}
}

func TestSinkReset(t *testing.T) {
	s := NewSink(2)
	s.SetSampleEvery(1)
	s.Count(s.Start(), 1, false, false)
	s.Reset()
	snap := s.Snapshot("model", nil)
	if snap.Packets != 0 || snap.EntryHits[1] != 0 || snap.Latency.Samples != 0 {
		t.Fatalf("reset left residue: %+v", snap)
	}
	if snap.SampleEvery != 1 {
		t.Fatalf("reset lost the sampling period: %d", snap.SampleEvery)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)   // bucket 0
	h.Observe(1)   // bucket 1: [1,2)
	h.Observe(100) // bucket 7: [64,128)
	h.Observe(127) // bucket 7
	h.Observe(-5)  // clamps to 0
	h.Observe(1 << 62)
	if h.Samples != 6 {
		t.Fatalf("samples = %d", h.Samples)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 1 || h.Counts[7] != 2 || h.Counts[NumBuckets-1] != 1 {
		t.Fatalf("bucket layout wrong: %v", h.Counts)
	}
	if h.MaxNs != 1<<62 {
		t.Fatalf("max = %d", h.MaxNs)
	}
	if q := h.Quantile(0.5); q != BucketBound(1) && q != BucketBound(7) {
		t.Fatalf("median bound %d not near the mass", q)
	}
	if h.Quantile(1) != BucketBound(NumBuckets-1) {
		t.Fatalf("p100 = %d", h.Quantile(1))
	}
}

func TestHistogramAdd(t *testing.T) {
	var a, b Histogram
	a.Observe(10)
	b.Observe(1000)
	a.Add(b)
	if a.Samples != 2 || a.SumNs != 1010 || a.MaxNs != 1000 {
		t.Fatalf("merge wrong: %+v", a)
	}
}

func TestSnapshotMergeAndEqual(t *testing.T) {
	a := Snapshot{Packets: 3, Forwards: 2, Drops: 1, EntryHits: []int64{2, 1},
		StateSizes: map[string]int{"m": 2}, Shards: 1}
	b := Snapshot{Packets: 1, Forwards: 1, EntryHits: []int64{0, 0, 1},
		StateSizes: map[string]int{"m": 1}, Shards: 1}
	m := a.Merge(b)
	if m.Packets != 4 || m.Forwards != 3 || m.Drops != 1 || m.Shards != 2 {
		t.Fatalf("merge counters wrong: %+v", m)
	}
	if len(m.EntryHits) != 3 || m.EntryHits[0] != 2 || m.EntryHits[2] != 1 {
		t.Fatalf("merge hits wrong: %v", m.EntryHits)
	}
	if m.StateSizes["m"] != 3 {
		t.Fatalf("merge sizes wrong: %v", m.StateSizes)
	}

	if !a.CountersEqual(a) {
		t.Fatal("snapshot not equal to itself")
	}
	// Trailing zero hits and latency/backend differences don't matter.
	c := a
	c.EntryHits = []int64{2, 1, 0}
	c.Backend = "sharded"
	c.Latency.Observe(5)
	if !a.CountersEqual(c) {
		t.Fatal("padding/latency/backend should not break equality")
	}
	c.EntryHits = []int64{2, 2}
	if a.CountersEqual(c) {
		t.Fatal("differing hits compared equal")
	}
}

func TestPacketTraceString(t *testing.T) {
	tr := &PacketTrace{
		Packet:  "1.1.1.1:10 > 2.2.2.2:80 tcp",
		Backend: "compiled",
		Entry:   1,
		Guards: []GuardEval{
			{Entry: 0, Guard: "pkt.dport == 23", Outcome: "false"},
			{Entry: 1, Guard: "pkt.dport == 80", Outcome: "true"},
		},
		Changes: []StateChange{
			{Var: "nat", Op: "set", Key: "(1.1.1.1, 10)", Val: "(3.3.3.3, 80)"},
			{Var: "rr_idx", Op: "assign", Val: "1"},
		},
		Sent: []string{"1.1.1.1:10 > 3.3.3.3:80 tcp"},
	}
	s := tr.String()
	for _, want := range []string{
		"entry 0:", "pkt.dport == 23", "= false",
		"entry 1 fired", "nat[(1.1.1.1, 10)] := (3.3.3.3, 80)",
		"rr_idx := 1", "verdict: FORWARD",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("trace missing %q:\n%s", want, s)
		}
	}

	drop := &PacketTrace{Packet: "p", Backend: "model", Entry: -1, Dropped: true}
	if !strings.Contains(drop.String(), "implicit default drop") {
		t.Fatalf("default-drop trace wrong:\n%s", drop.String())
	}
}

func TestDiffGuards(t *testing.T) {
	a := &PacketTrace{Backend: "instance", Guards: []GuardEval{
		{Entry: 0, Guard: "g0", Outcome: "false"},
		{Entry: 1, Guard: "g1", Outcome: "true"},
	}}
	b := &PacketTrace{Backend: "engine", Guards: []GuardEval{
		{Entry: 0, Guard: "g0", Outcome: "false"},
		{Entry: 1, Guard: "g1", Outcome: "false"},
	}}
	d := DiffGuards(a, b)
	if !strings.Contains(d, "entry 1") || !strings.Contains(d, "g1") {
		t.Fatalf("diff missed the disagreeing guard: %q", d)
	}
	if DiffGuards(a, a) != "" {
		t.Fatal("identical trails reported a diff")
	}
	// Structurally different trails (config guard folded away on one
	// side) with agreeing shared guards: no diff.
	c := &PacketTrace{Backend: "engine", Guards: []GuardEval{
		{Entry: 1, Guard: "g1", Outcome: "true"},
	}}
	if DiffGuards(a, c) != "" {
		t.Fatal("missing guards should be skipped, not diffed")
	}
}

func TestWritePrometheus(t *testing.T) {
	s := NewSink(2)
	s.SetSampleEvery(1)
	s.Count(s.Start(), 0, false, false)
	s.Count(s.Start(), -1, true, false)
	snap := s.Snapshot("compiled", map[string]int{"nat": 7})
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb, "lb"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`nfactor_packets_total{nf="lb",backend="compiled"} 2`,
		`verdict="forward"} 1`,
		`verdict="drop"} 1`,
		`nfactor_entry_hits_total{nf="lb",backend="compiled",entry="0"} 1`,
		`nfactor_state_size{nf="lb",backend="compiled",var="nat"} 7`,
		`nfactor_latency_ns_count{nf="lb",backend="compiled"} 2`,
		`le="+Inf"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// The loop's batch counters reach both the summary line and the scrape.
func TestServeStatsBatchCounters(t *testing.T) {
	st := ServeStats{Generation: 1, Packets: 300, Batches: 8, FullBatches: 3}
	if rep := st.Report(); !strings.Contains(rep, "mean_batch=37.5") {
		t.Errorf("report %q lacks mean_batch=37.5", rep)
	}
	if rep := (ServeStats{Generation: 1}).Report(); strings.Contains(rep, "mean_batch") {
		t.Errorf("report %q gives a mean over no batches", rep)
	}
	var sb strings.Builder
	if err := st.WriteServePrometheus(&sb, "fw"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`nfactor_serve_batches_total{nf="fw"} 8`,
		`nfactor_serve_full_batches_total{nf="fw"} 3`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// Telemetry accounting itself must be allocation-free per packet.
func TestSinkZeroAlloc(t *testing.T) {
	s := NewSink(4)
	s.SetSampleEvery(1) // worst case: every packet takes both clock reads
	allocs := testing.AllocsPerRun(1000, func() {
		t0 := s.Start()
		s.Count(t0, 2, false, false)
	})
	if allocs != 0 {
		t.Fatalf("sink allocates %.1f/packet, want 0", allocs)
	}
}

package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nfactor/internal/netpkt"
	"nfactor/internal/obsrv"
	"nfactor/internal/telemetry"
)

// Config tunes a Server.
type Config struct {
	// Source feeds packets; nil is invalid. Sink receives outcomes;
	// nil means Discard.
	Source Source
	Sink   Sink
	// BatchSize is the maximum batch. The loop blocks for a batch's
	// first packet and then takes only what the source already holds
	// (see Source), so a batch is one packet under light traffic and
	// grows to BatchSize under load, where it amortizes the per-barrier
	// bookkeeping. Swaps apply only at the barriers between batches.
	// Default 64.
	BatchSize int
	// WindowSize bounds the ring of recently served packets that gates
	// swaps. Default 1024.
	WindowSize int
	// OnSwap, when set, observes every swap decision (applied or
	// blocked) from the serving goroutine, before the requester's
	// channel is answered.
	OnSwap func(*SwapReport)
	// Obs, when set, enables the observability collectors (gap-hit
	// detection against NFL103 witnesses, verdict-mix/top-K drift, the
	// swap audit trail) — the state behind the obsrv HTTP endpoints.
	// The collectors rebuild at every generation install.
	Obs *obsrv.Options
}

// Server is the live serving loop: one goroutine (Run) pulls packets
// from the Source in batches, pushes every verdict to the Sink, and
// applies queued generation swaps at batch barriers — the quiescence
// point where no packet is in flight, so every packet observes exactly
// one generation (asserted per packet via the epoch stamp).
//
// RequestSwap, Stats and Snapshot may be called from other goroutines;
// everything else belongs to the serving goroutine.
type Server struct {
	cfg Config
	gen *Generation

	window []netpkt.Packet // ring of the last WindowSize served packets
	total  int64           // packets pushed into the ring

	swapCh    chan *swapTicket
	stopCh    chan struct{}
	inspectCh chan *inspectTicket
	running   atomic.Bool // serving loop active (InspectState routing)

	stats telemetry.ServeStats // serving-goroutine copy

	// What other goroutines read. The stats are copied out after every
	// batch; the snapshots in pub are rebuilt at most every obsRefresh
	// of wall time (pubAt), and whenever a reader is about to look
	// (generation install, swap decision, Run's return).
	statsMu  sync.Mutex
	pubStats telemetry.ServeStats
	pub      atomic.Pointer[Published]
	pubAt    time.Time

	// Observability collectors (nil when Config.Obs is unset). obs
	// belongs to the serving goroutine; swapLog is internally locked.
	obs     *obsrv.Collector
	swapLog *obsrv.SwapLog

	lastEpoch uint64
}

// obsRefresh is how stale a published snapshot may get: scrapes want
// freshness on the order of seconds, the serve loop turns over batches
// in microseconds — one per packet under light traffic — and building
// the snapshots (state sizes, entry-hit copies, sample rendering,
// sketch copies, per-stage telemetry) costs microseconds and grows with
// the model. Amortizing it by wall time keeps the barrier's cost
// independent of both packet rate and model size.
const obsRefresh = 200 * time.Millisecond

// Published is the cross-goroutine view of the serving generation: the
// engine's own telemetry and, when observability is enabled, the
// per-stage telemetry and the collector snapshot.
type Published struct {
	// Generation and Name identify the serving generation (the
	// candidate's display name), so readers never touch the live
	// generation struct.
	Generation uint64
	Name       string
	Engine     telemetry.Snapshot
	Stages     []telemetry.Snapshot
	Obs        *obsrv.Snapshot
}

type swapTicket struct {
	req SwapRequest
	ch  chan *SwapReport
}

// New builds the initial generation (number 1, pristine state) and a
// server around it.
func New(c Candidate, cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("serve: nil source")
	}
	if cfg.Sink == nil {
		cfg.Sink = Discard
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.WindowSize <= 0 {
		cfg.WindowSize = 1024
	}
	stages, err := normalize(c)
	if err != nil {
		return nil, err
	}
	gen, err := buildGeneration(c, 1, stages, nil)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		gen:       gen,
		window:    make([]netpkt.Packet, 0, cfg.WindowSize),
		swapCh:    make(chan *swapTicket, 16),
		stopCh:    make(chan struct{}),
		inspectCh: make(chan *inspectTicket, 16),
		lastEpoch: gen.Num,
	}
	if cfg.Obs != nil {
		s.swapLog = obsrv.NewSwapLog(cfg.Obs.SwapLog)
		s.installCollector()
	}
	s.stats.Generation = gen.Num
	s.publish(true)
	return s, nil
}

// Generation returns the serving generation's number and name, as
// published at its install (reading the live generation struct would
// race the swap install on the serving goroutine).
func (s *Server) Generation() (uint64, string) {
	p := s.pub.Load()
	return p.Generation, p.Name
}

// RequestSwap queues a swap for the next eligible batch barrier and
// returns a channel that receives the report (buffered: the requester
// may drop it). Requests are served FIFO; each gates against whatever
// generation is serving when it reaches its barrier. If the server
// stops (or the source drains) before the request becomes eligible, the
// report comes back Blocked with that reason.
func (s *Server) RequestSwap(req SwapRequest) <-chan *SwapReport {
	t := &swapTicket{req: req, ch: make(chan *SwapReport, 1)}
	select {
	case s.swapCh <- t:
	default:
		t.ch <- &SwapReport{Name: req.Candidate.name(), Blocked: true,
			Reason: "swap queue full", DivergencePacket: -1}
	}
	return t.ch
}

// Stop makes Run return at the next batch barrier. Sources that block
// indefinitely (UDP) should also be closed to unblock the fill.
func (s *Server) Stop() {
	select {
	case <-s.stopCh:
	default:
		close(s.stopCh)
	}
}

// Stats returns the serving stats as of the last served batch.
func (s *Server) Stats() telemetry.ServeStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	return s.pubStats
}

// Snapshot returns the serving engine's most recently published
// telemetry snapshot: at most obsRefresh old while serving, exact after
// a swap decision and after Run returns.
func (s *Server) Snapshot() telemetry.Snapshot { return s.pub.Load().Engine }

// Run serves until the source is exhausted or Stop is called. It
// returns a non-nil error only when the data plane itself fails (an
// evaluation error — a synthesis bug, not an operational condition),
// the source fails, or the sink rejects a write.
func (s *Server) Run() (err error) {
	var pending []*swapTicket
	flush, _ := s.cfg.Sink.(flusher)
	s.running.Store(true)
	defer func() {
		for _, t := range pending {
			t.ch <- &SwapReport{From: s.gen.Num, To: s.gen.Num, Name: t.req.Candidate.name(),
				Blocked: true, Reason: "server stopped before the swap point", DivergencePacket: -1}
		}
		// Answer inspection tickets that raced the shutdown, then let
		// future ones take the direct (quiesced) path.
		s.serviceInspect()
		// The amortized refresh may lag by up to obsRefresh, and a
		// drained server must report exact totals.
		s.publish(true)
		if flush != nil {
			// Only a batch cut short by an error left anything buffered.
			if ferr := flush.Flush(); err == nil && ferr != nil {
				err = fmt.Errorf("serve: sink: %w", ferr)
			}
		}
		s.running.Store(false)
	}()

	ready, _ := s.cfg.Source.(pender)
	batch := make([]netpkt.Packet, 0, s.cfg.BatchSize)
	outs := make([]Outcome, s.cfg.BatchSize)
	for {
		// Barrier: no packet is in flight here. Apply every eligible
		// queued swap, FIFO, and answer state-inspection tickets on the
		// quiesced plane.
		pending = s.drainSwaps(pending)
		pending = s.applyEligible(pending)
		s.serviceInspect()

		select {
		case <-s.stopCh:
			return nil
		default:
		}

		// Fill: block for the first packet, then take only what the
		// source already holds, up to the maximum. A source that cannot
		// say (it never waits) fills the batch.
		batch = batch[:0]
		exhausted := false
		var srcErr error
		for len(batch) < s.cfg.BatchSize {
			if len(batch) > 0 && ready != nil && !ready.Pending() {
				break
			}
			var p netpkt.Packet
			ok, err := s.cfg.Source.Next(&p)
			if !ok {
				exhausted, srcErr = true, err
				break
			}
			if err != nil {
				continue // malformed input, counted by the source
			}
			batch = append(batch, p)
		}
		if len(batch) > 0 {
			if err := s.serveBatch(batch, outs[:len(batch)], flush); err != nil {
				return err
			}
		}
		if exhausted {
			pending = s.drainSwaps(pending)
			pending = s.applyEligible(pending)
			if srcErr != nil {
				return fmt.Errorf("serve: source: %w", srcErr)
			}
			return nil
		}
	}
}

// serveBatch runs one batch through the serving plane, asserts the
// per-packet consistency invariant on every output's epoch stamp,
// records the packets in the gating window, emits the outcomes and
// flushes a buffering sink.
func (s *Server) serveBatch(batch []netpkt.Packet, outs []Outcome, flush flusher) error {
	if err := s.gen.plane.processBatch(batch, outs); err != nil {
		return fmt.Errorf("serve: generation %d: %w", s.gen.Num, err)
	}
	for i := range batch {
		o := &outs[i]
		// Per-packet consistency: a batch straddles no swap, so every
		// stamp must be the serving generation's, and stamps never move
		// backwards across batches.
		if o.Epoch != s.gen.Num || o.Epoch < s.lastEpoch {
			s.stats.EpochViolations++
		}
		s.lastEpoch = o.Epoch
		s.pushWindow(&batch[i])
		s.stats.Packets++
		if s.obs != nil {
			s.obs.Observe(&batch[i], o.Verdict.Dropped, o.DefaultStage)
		}
		if err := s.cfg.Sink.Emit(s.stats.Packets, &batch[i], o); err != nil {
			return fmt.Errorf("serve: sink: %w", err)
		}
	}
	if flush != nil {
		if err := flush.Flush(); err != nil {
			return fmt.Errorf("serve: sink: %w", err)
		}
	}
	s.stats.Batches++
	if len(batch) == s.cfg.BatchSize {
		s.stats.FullBatches++
	}
	s.publish(false)
	return nil
}

// drainSwaps moves queued tickets into the pending list without
// blocking.
func (s *Server) drainSwaps(pending []*swapTicket) []*swapTicket {
	for {
		select {
		case t := <-s.swapCh:
			pending = append(pending, t)
		default:
			return pending
		}
	}
}

// applyEligible runs every pending swap whose packet threshold has been
// reached. Runs at the barrier, on the serving goroutine.
func (s *Server) applyEligible(pending []*swapTicket) []*swapTicket {
	rest := pending[:0]
	for _, t := range pending {
		if t.req.AfterPackets > s.stats.Packets {
			rest = append(rest, t)
			continue
		}
		gen, rep := swap(s.gen, t.req, s.windowCopy())
		if gen != nil {
			s.gen = gen
			s.stats.Generation = gen.Num
			s.stats.Swaps++
			s.stats.CarriedVars += int64(rep.Carried)
			s.stats.ResetVars += int64(rep.Reset)
			s.stats.LastSwapPauseNs = rep.Pause.Nanoseconds()
			// New model, new observers: gap matchers and the drift
			// baseline are generation properties.
			s.installCollector()
		} else {
			s.stats.SwapsBlocked++
		}
		if s.swapLog != nil {
			s.swapLog.Record(swapEventOf(rep, s.stats.Packets))
		}
		// Whoever receives the report reads Stats and Snapshot next.
		s.publish(true)
		if s.cfg.OnSwap != nil {
			s.cfg.OnSwap(rep)
		}
		t.ch <- rep
	}
	return rest
}

// pushWindow records one served packet in the gating ring.
func (s *Server) pushWindow(p *netpkt.Packet) {
	if len(s.window) < cap(s.window) {
		s.window = append(s.window, *p)
	} else {
		s.window[s.total%int64(cap(s.window))] = *p
	}
	s.total++
}

// windowCopy snapshots the ring in serving order (oldest first).
func (s *Server) windowCopy() []netpkt.Packet {
	n := int64(len(s.window))
	out := make([]netpkt.Packet, 0, n)
	if n < int64(cap(s.window)) {
		return append(out, s.window...)
	}
	at := s.total % n
	out = append(out, s.window[at:]...)
	return append(out, s.window[:at]...)
}

// publish copies the serve stats out for Stats and, when the published
// snapshots are older than obsRefresh or full is set, rebuilds those
// (see obsRefresh for why not every batch).
func (s *Server) publish(full bool) {
	st := s.stats
	st.WindowLen = int64(len(s.window))
	s.statsMu.Lock()
	s.pubStats = st
	s.statsMu.Unlock()

	now := time.Now()
	if !full && now.Sub(s.pubAt) < obsRefresh {
		return
	}
	s.pubAt = now
	p := &Published{Generation: s.gen.Num, Name: s.gen.Name, Engine: s.gen.plane.snapshot()}
	if s.obs != nil {
		p.Obs = s.obs.Snapshot(s.gen.Num, s.gen.Name)
		p.Stages = s.gen.plane.stageSnapshots()
	}
	s.pub.Store(p)
}

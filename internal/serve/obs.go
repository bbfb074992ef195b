package serve

import (
	"time"

	"nfactor/internal/obsrv"
	"nfactor/internal/telemetry"
)

// Observability wiring: the serve loop owns the obsrv collectors (one
// set per generation — gap matchers and drift baselines are properties
// of the installed model) and implements obsrv.Observable so the HTTP
// plane can watch a live server without touching the hot path. The
// collectors run inside serveBatch on the serving goroutine;
// cross-goroutine readers only ever see atomically published snapshots
// or barrier-quiesced state.

// obsInfo describes the generation's stages to the collector.
func obsInfo(stages []genStage) []obsrv.StageInfo {
	out := make([]obsrv.StageInfo, len(stages))
	for i := range stages {
		st := &stages[i]
		out[i] = obsrv.StageInfo{Name: st.name, Model: st.m, Config: st.config, Init: st.init}
	}
	return out
}

// installCollector builds fresh collectors for the (newly installed)
// generation; the full publish that follows every install replaces the
// old generation's snapshot.
func (s *Server) installCollector() {
	if s.cfg.Obs == nil {
		return
	}
	s.obs = obsrv.NewCollector(obsInfo(s.gen.stages), *s.cfg.Obs)
}

// swapEventOf converts a swap report into the audit-trail event.
func swapEventOf(rep *SwapReport, packetsServed int64) obsrv.SwapEvent {
	return obsrv.SwapEvent{
		Time:             time.Now(),
		PacketsServed:    packetsServed,
		From:             rep.From,
		To:               rep.To,
		Name:             rep.Name,
		Blocked:          rep.Blocked,
		Reason:           rep.Reason,
		GuardDiff:        rep.GuardDiff,
		DivergencePacket: rep.DivergencePacket,
		WindowLen:        rep.WindowLen,
		EntriesAdded:     rep.EntriesAdded,
		EntriesRemoved:   rep.EntriesRemoved,
		Decisions:        rep.Decisions,
		Carried:          rep.Carried,
		Reset:            rep.Reset,
		PauseNs:          rep.Pause.Nanoseconds(),
	}
}

// StageSnapshots returns the most recently published per-stage engine
// telemetry (nil before the first publish with collectors enabled).
func (s *Server) StageSnapshots() []telemetry.Snapshot { return s.pub.Load().Stages }

// Observed returns the most recently published collector snapshot (nil
// when Config.Obs is unset).
func (s *Server) Observed() *obsrv.Snapshot { return s.pub.Load().Obs }

// SwapEvents returns the bounded swap audit trail, oldest first (empty
// when Config.Obs is unset).
func (s *Server) SwapEvents() []obsrv.SwapEvent {
	if s.swapLog == nil {
		return nil
	}
	return s.swapLog.Events()
}

// inspectTicket asks the serving goroutine for a quiesced state walk.
type inspectTicket struct {
	ch chan []obsrv.StageState
}

// InspectState walks the live per-variable state, classified by the
// dataplane lowering. While the serving loop runs, the request is
// serviced at the next batch barrier — the quiescence point, so the
// walk races nothing and sees exactly the state between two batches.
// Returns nil when no barrier arrives inside the timeout (a stalled
// source) or the ticket queue is full. When the loop is not running
// (before Run, after it returns), the walk runs directly.
func (s *Server) InspectState(timeout time.Duration) []obsrv.StageState {
	if !s.running.Load() {
		return s.inspectNow()
	}
	t := &inspectTicket{ch: make(chan []obsrv.StageState, 1)}
	select {
	case s.inspectCh <- t:
	default:
		return nil
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case states := <-t.ch:
		return states
	case <-timer.C:
		return nil
	}
}

// inspectNow builds the state walk on the caller. Only safe when the
// serving goroutine is quiesced: at a barrier, or not running at all.
// Uses the bounded stageViews export — an inspection must cost
// O(vars + samples) at the barrier, never O(table): with a full-copy
// export a single /state hit against a large NAT table stalls the
// serving loop for tens of milliseconds.
func (s *Server) inspectNow() []obsrv.StageState {
	live := s.gen.plane.stageViews(s.stateSample())
	out := make([]obsrv.StageState, len(live))
	for i := range live {
		st := &s.gen.stages[i]
		out[i] = obsrv.BuildStageState(i, st.name, st.cls, live[i], s.stateSample())
	}
	return out
}

func (s *Server) stateSample() int {
	if s.cfg.Obs != nil && s.cfg.Obs.GapSamples > 0 {
		return s.cfg.Obs.GapSamples
	}
	return 8
}

// serviceInspect answers every queued inspection ticket with one shared
// walk. Runs at the batch barrier on the serving goroutine.
func (s *Server) serviceInspect() {
	var states []obsrv.StageState
	for {
		select {
		case t := <-s.inspectCh:
			if states == nil {
				states = s.inspectNow()
			}
			t.ch <- states
		default:
			return
		}
	}
}

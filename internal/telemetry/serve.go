package telemetry

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// ServeStats is the serving loop's own telemetry, layered over the
// engine Snapshot: generation bookkeeping for hot swaps and the
// per-packet consistency check. A Server publishes a copy after every
// batch.
type ServeStats struct {
	// Generation is the epoch of the currently serving engine; it starts
	// at 1 and increments once per applied swap.
	Generation uint64
	// Packets is the total served (ingress) packet count across all
	// generations.
	Packets int64
	// Batches counts the batches those packets were served in, and
	// FullBatches the ones that reached the configured maximum. The loop
	// takes what is ready, so Packets/Batches is near 1 under light
	// traffic and grows toward the maximum under load.
	Batches     int64
	FullBatches int64
	// Swaps counts applied generation swaps; SwapsBlocked counts swap
	// requests the gate refused (candidate faithfulness or behavior
	// divergence over the live window).
	Swaps        int64
	SwapsBlocked int64
	// CarriedVars / ResetVars total the per-variable carry-over
	// decisions across all applied swaps.
	CarriedVars int64
	ResetVars   int64
	// EpochViolations counts packets whose output epoch broke the
	// per-packet consistency invariant: every batch must be uniformly
	// stamped with the serving generation, and stamps must never move
	// backwards. Always 0 unless the swap barrier is broken.
	EpochViolations int64
	// LastSwapPauseNs is how long the data plane was quiesced while the
	// most recent swap diffed, carried state and rebuilt the plane.
	LastSwapPauseNs int64
	// WindowLen is the number of recently served packets currently held
	// for gating the next swap.
	WindowLen int64
}

// Report renders a one-line human-readable summary.
func (s ServeStats) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "generation=%d packets=%d swaps=%d blocked=%d epoch_violations=%d",
		s.Generation, s.Packets, s.Swaps, s.SwapsBlocked, s.EpochViolations)
	if s.Swaps > 0 {
		fmt.Fprintf(&b, " carried=%d reset=%d last_pause=%s",
			s.CarriedVars, s.ResetVars, time.Duration(s.LastSwapPauseNs))
	}
	fmt.Fprintf(&b, " window=%d", s.WindowLen)
	if s.Batches > 0 {
		fmt.Fprintf(&b, " mean_batch=%.1f", float64(s.Packets)/float64(s.Batches))
	}
	return b.String()
}

// WriteServePrometheus renders the serving gauges and counters in the
// Prometheus text exposition format, alongside Snapshot.WritePrometheus
// output for the serving engine.
func (s ServeStats) WriteServePrometheus(w io.Writer, nf string) error {
	lbl := fmt.Sprintf("nf=%q", nf)
	p := func(format string, args ...any) error {
		_, err := fmt.Fprintf(w, format, args...)
		return err
	}
	rows := []struct {
		name, help, typ string
		v               int64
	}{
		{"nfactor_serve_generation", "Epoch of the serving engine generation.", "gauge", int64(s.Generation)},
		{"nfactor_serve_packets_total", "Packets served across all generations.", "counter", s.Packets},
		{"nfactor_serve_batches_total", "Batches served (a batch is what was ready, up to the maximum).", "counter", s.Batches},
		{"nfactor_serve_full_batches_total", "Batches that reached the maximum batch size.", "counter", s.FullBatches},
		{"nfactor_serve_swaps_total", "Applied engine generation swaps.", "counter", s.Swaps},
		{"nfactor_serve_swaps_blocked_total", "Swap requests refused by the equivalence gate.", "counter", s.SwapsBlocked},
		{"nfactor_serve_carried_vars_total", "State variables carried across swaps.", "counter", s.CarriedVars},
		{"nfactor_serve_reset_vars_total", "State variables reset across swaps.", "counter", s.ResetVars},
		{"nfactor_serve_epoch_violations_total", "Packets that broke per-packet generation consistency.", "counter", s.EpochViolations},
		{"nfactor_serve_last_swap_pause_ns", "Data-plane quiesce time of the most recent swap.", "gauge", s.LastSwapPauseNs},
		{"nfactor_serve_window_packets", "Live traffic window held for swap gating.", "gauge", s.WindowLen},
	}
	for _, r := range rows {
		if err := p("# HELP %s %s\n# TYPE %s %s\n%s{%s} %d\n", r.name, r.help, r.name, r.typ, r.name, lbl, r.v); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/chain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/integrity"
	"repro/internal/obs"
	"repro/internal/radar"
	"repro/internal/screen"
	"repro/internal/worldgen"
)

// The radar workload replays a generated chain through the live radar.
const (
	radarScale = 0.02
	// stepEvery is the blocks that arrive between steps, the
	// loadgen.RunRadar default.
	stepEvery = 4
	// reorgWindow is radar.Config's default ReorgWindow, which daasctl
	// radar passes too: a restore point every this many blocks.
	reorgWindow = 32
	// warmupBlocks is the prefix the warm-up replays: three restore
	// points, so every step class runs once before timing.
	warmupBlocks = 3 * reorgWindow
)

// radarWorkload: one op is one radar.Step over the next stepEvery
// blocks. Ops run as whole replays of the chain from genesis, each on
// a fresh radar configured as daasctl radar configures it for a local
// world.
type radarWorkload struct {
	world *worldgen.World
	reg   *obs.Registry
	// The batch pipeline's dataset and family exports of the world,
	// which every replay must reproduce byte for byte.
	want, wantFamilies []byte
	wantDS             *core.Dataset
	// last is the newest replay's radar, kept reachable for heap_mb.
	last *radar.Radar
}

func (w *radarWorkload) setup(seed uint64) error {
	cfg := worldgen.DefaultConfig(seed)
	cfg.Scale = radarScale
	world, err := worldgen.Generate(cfg)
	if err != nil {
		return err
	}
	w.world = world
	w.reg = obs.NewRegistry()
	src := core.LocalSource{Chain: world.Chain}
	p := &core.Pipeline{Source: src, Labels: world.Labels}
	ds, err := p.Build()
	if err != nil {
		return err
	}
	fams, err := (&cluster.Clusterer{Source: src, Labels: world.Labels}).Cluster(ds)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := ds.WriteJSON(&buf); err != nil {
		return err
	}
	w.want, w.wantDS = buf.Bytes(), ds
	if w.wantFamilies, err = json.MarshalIndent(fams, "", " "); err != nil {
		return err
	}
	_, err = w.replay(&result{classes: map[string][]float64{}}, warmupBlocks, nil)
	return err
}

func (w *radarWorkload) close() {}

// replayStats is what the timing wrappers saw during one replay.
type replayStats struct {
	source  sourceStats
	blocks  callStats
	stepSum time.Duration
}

// replay runs a fresh radar over the chain, one Step per stepEvery
// blocks, up to block limit (0 = the whole chain), booking each step
// into res. With tr set the chain source and block source are timed
// and each step is recorded as a span.
func (w *radarWorkload) replay(res *result, limit uint64, tr *tracer) (*radar.Radar, error) {
	var st replayStats
	f := chain.NewFollower(w.world.Chain)
	dst := f.Chain()
	var base core.ChainSource = core.LocalSource{Chain: dst}
	var blocks radar.BlockSource = radar.ChainBlocks{Chain: dst}
	if tr != nil {
		base = wrapSource(base, &st.source)
		blocks = timedBlocks{src: blocks, st: &st.blocks}
	}
	src := integrity.Wrap(base, integrity.NewQuarantine(w.reg), w.reg)
	eng := screen.NewEngine(w.reg)
	r, err := radar.New(radar.Config{
		Source:  src,
		Blocks:  blocks,
		Labels:  w.world.Labels,
		Engine:  eng,
		Pins:    src,
		Metrics: w.reg,
		Logger:  obs.New(os.Stderr, obs.LevelInfo),
	})
	if err != nil {
		return nil, err
	}
	var cursor uint64
	var swaps uint64
	for limit == 0 || cursor < limit {
		advanced := 0
		for advanced < stepEvery {
			if _, ok := f.Advance(); !ok {
				break
			}
			advanced++
		}
		if advanced == 0 {
			break
		}
		head := cursor + uint64(advanced)
		before := eng.Snapshot()
		res.attempted++
		cpu0 := cpuTime()
		start := time.Now()
		_, err := r.Step()
		d := time.Since(start)
		res.cpu += cpuTime() - cpu0
		if err != nil {
			res.fail("radar: step to block %d: %v", head, err)
			cursor = head
			continue
		}
		class := "radar_plain"
		if head/reorgWindow > cursor/reorgWindow {
			class = "radar_point"
		} else if eng.Snapshot() != before {
			class = "radar_swap"
		}
		if eng.Snapshot() != before {
			swaps++
		}
		cursor = head
		res.lat = append(res.lat, ms(d))
		res.classes[class] = append(res.classes[class], ms(d))
		if class == "radar_point" {
			res.minor = append(res.minor, ms(d))
		}
		st.stepSum += d
		tr.add(0, res.attempted, "radar.step", class[len("radar_"):], start, d)
	}
	if status := r.Status(); status.Cursor != cursor || status.Swaps != swaps {
		res.fail("radar: status reports cursor %d and %d swaps, the replay saw %d and %d",
			status.Cursor, status.Swaps, cursor, swaps)
	}
	if tr != nil {
		n, b := st.source.load()
		bn, bb := st.blocks.load()
		res.layers["source.calls"] += float64(n)
		res.layers["source.busy_ms"] += ms(b)
		res.layers["blocks.calls"] += float64(bn)
		res.layers["blocks.busy_ms"] += ms(bb)
		res.covered += b + bb
		res.opTime += st.stepSum
	}
	return r, nil
}

// check verifies that a full replay reproduced the batch pipeline's
// exports, and times the family rollup and a snapshot compile on the
// final state when traced.
func (w *radarWorkload) check(res *result, r *radar.Radar, traced bool) {
	var buf bytes.Buffer
	if err := r.ExportJSON(&buf); err != nil || !bytes.Equal(buf.Bytes(), w.want) {
		res.fail("radar: replay dataset export differs from the batch pipeline's (err %v)", err)
	}
	start := time.Now()
	fams := r.Families()
	famTime := time.Since(start)
	if got, err := json.MarshalIndent(fams, "", " "); err != nil || !bytes.Equal(got, w.wantFamilies) {
		res.fail("radar: replay family export differs from the batch pipeline's (err %v)", err)
	}
	if !traced {
		return
	}
	res.layers["cluster.families_ms"] = ms(famTime)
	var compiles []float64
	var snap *screen.Snapshot
	for i := 0; i < 5; i++ {
		start := time.Now()
		snap = screen.Compile(w.wantDS, fams, nil)
		compiles = append(compiles, ms(time.Since(start)))
	}
	res.layers["screen.compile_ms"] = median(compiles)
	res.layers["screen.records"] = float64(snap.Len())
}

func (w *radarWorkload) measure(d time.Duration, tr *tracer) (*result, error) {
	res := &result{classes: map[string][]float64{}, layers: map[string]float64{}}
	start := time.Now()
	replays := 0
	for replays == 0 || time.Since(start)+time.Since(start)/time.Duration(replays) <= d {
		r, err := w.replay(res, 0, tr)
		if err != nil {
			return nil, err
		}
		w.check(res, r, tr != nil)
		w.last = r
		replays++
	}
	if tr != nil {
		for _, k := range []string{"source.calls", "source.busy_ms", "blocks.calls", "blocks.busy_ms"} {
			res.layers[k] = perOp(res.layers[k], res.attempted)
		}
		var pointTime, allTime float64
		for _, v := range res.classes["radar_point"] {
			pointTime += v
		}
		for _, v := range res.lat {
			allTime += v
		}
		if allTime > 0 {
			res.layers["radar.point_share"] = 100 * pointTime / allTime
		}
		res.layers["radar.plain_steps"] = float64(len(res.classes["radar_plain"])) / float64(replays)
		res.layers["radar.swap_steps"] = float64(len(res.classes["radar_swap"])) / float64(replays)
		res.layers["radar.point_steps"] = float64(len(res.classes["radar_point"])) / float64(replays)
		res.layers["radar.plain_step_p50_ms"] = median(res.classes["radar_plain"])
		res.layers["radar.swap_step_p50_ms"] = median(res.classes["radar_swap"])
		res.layers["screen.swaps"] = float64(w.last.Status().Swaps)
	}
	fmt.Printf("radar: %d replays, %d steps (%d plain, %d swap, %d point)\n", replays, res.attempted,
		len(res.classes["radar_plain"]), len(res.classes["radar_swap"]), len(res.classes["radar_point"]))
	return res, nil
}

// Package flowgraph traces stolen funds downstream from DaaS accounts
// — the paper's §8.1 observation that reported accounts "are unable to
// directly withdraw tokens through centralized exchanges [and] instead
// typically launder funds by routing them through cross-chain bridges
// and mixing services". The tracer follows outgoing ETH transfers hop
// by hop until they reach a labeled sink (exchange, mixer/bridge) or a
// depth limit, and aggregates value per sink class.
package flowgraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/chain"
	"repro/internal/core"
	"repro/internal/ethtypes"
	"repro/internal/labels"
)

// SinkKind classifies where a traced flow terminated.
type SinkKind string

// Sink classes.
const (
	// SinkExchange is a labeled centralized-exchange deposit point.
	SinkExchange SinkKind = "exchange"
	// SinkMixer is a labeled mixing/bridging service.
	SinkMixer SinkKind = "mixer"
	// SinkHeld means the funds sat unspent within the traced horizon.
	SinkHeld SinkKind = "held"
	// SinkUnknown means the trace hit the depth limit mid-flight.
	SinkUnknown SinkKind = "unknown"
)

// Hop is one edge of a traced path.
type Hop struct {
	From   ethtypes.Address
	To     ethtypes.Address
	Amount ethtypes.Wei
}

// Path is one origin-to-sink route.
type Path struct {
	Origin ethtypes.Address
	Sink   ethtypes.Address
	Kind   SinkKind
	Hops   []Hop
	Amount ethtypes.Wei // value arriving at the sink (minimum along the path)
}

// Trace is the aggregate result for one origin account.
type Trace struct {
	Origin ethtypes.Address
	Paths  []Path
	// SinkTotals sums arriving value per sink class.
	SinkTotals map[SinkKind]ethtypes.Wei
}

// DominantSink returns the sink class receiving the most value.
func (t *Trace) DominantSink() SinkKind {
	best, kind := ethtypes.Wei{}, SinkHeld
	for _, k := range []SinkKind{SinkExchange, SinkMixer, SinkUnknown, SinkHeld} {
		if v, ok := t.SinkTotals[k]; ok && v.Cmp(best) > 0 {
			best, kind = v, k
		}
	}
	return kind
}

// Tracer walks fund flows over a chain source.
type Tracer struct {
	Source core.ChainSource
	Labels *labels.Directory
	// MaxDepth bounds hop chains (default 4).
	MaxDepth int
}

// classify maps a labeled account to a sink class, if any.
func (tr *Tracer) classify(a ethtypes.Address) (SinkKind, bool) {
	if tr.Labels == nil {
		return "", false
	}
	for _, l := range tr.Labels.Of(a) {
		name := strings.ToLower(l.Name)
		switch {
		case l.Category == labels.CategoryExchange:
			return SinkExchange, true
		case l.Category == labels.CategoryService &&
			(strings.Contains(name, "mixer") || strings.Contains(name, "tornado") || strings.Contains(name, "bridge")):
			return SinkMixer, true
		}
	}
	return "", false
}

// Trace follows the origin's outgoing ETH until labeled sinks, the
// depth limit, or quiescence.
func (tr *Tracer) Trace(origin ethtypes.Address) (*Trace, error) {
	if tr.Source == nil {
		return nil, fmt.Errorf("flowgraph: Tracer needs a Source")
	}
	maxDepth := tr.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 4
	}
	out := &Trace{Origin: origin, SinkTotals: make(map[SinkKind]ethtypes.Wei)}
	visited := map[ethtypes.Address]bool{origin: true}
	err := tr.walk(out, origin, nil, ethtypes.Wei{}, maxDepth, visited)
	if err != nil {
		return nil, err
	}
	sort.Slice(out.Paths, func(i, j int) bool { return out.Paths[i].Amount.Cmp(out.Paths[j].Amount) > 0 })
	return out, nil
}

// walk explores outgoing transfers of acct. carried is the value that
// reached acct along the current path (zero for the origin itself).
func (tr *Tracer) walk(out *Trace, acct ethtypes.Address, hops []Hop, carried ethtypes.Wei, depth int, visited map[ethtypes.Address]bool) error {
	hashes, err := tr.Source.TransactionsOf(acct)
	if err != nil {
		return fmt.Errorf("flowgraph: history of %s: %w", acct.Short(), err)
	}
	outgoing := 0
	for _, h := range hashes {
		r, err := tr.Source.Receipt(h)
		if err != nil {
			return err
		}
		if !r.Status {
			continue
		}
		for _, t := range r.Transfers {
			if t.From != acct || t.Asset.Kind != chain.AssetETH {
				continue
			}
			if t.Amount.Sign() <= 0 {
				continue // a zero-value transfer moves no funds
			}
			if visited[t.To] {
				continue
			}
			amount := t.Amount
			if carried.Sign() > 0 && carried.Cmp(amount) < 0 {
				amount = carried
			}
			hop := Hop{From: acct, To: t.To, Amount: t.Amount}
			path := append(append([]Hop{}, hops...), hop)
			outgoing++
			if kind, isSink := tr.classify(t.To); isSink {
				tr.record(out, path, t.To, kind, amount)
				continue
			}
			if depth <= 1 {
				tr.record(out, path, t.To, SinkUnknown, amount)
				continue
			}
			visited[t.To] = true
			if err := tr.walk(out, t.To, path, amount, depth-1, visited); err != nil {
				return err
			}
		}
	}
	if outgoing == 0 && len(hops) > 0 {
		// A quiescent intermediary: funds are held here.
		tr.record(out, hops, acct, SinkHeld, carried)
	}
	return nil
}

func (tr *Tracer) record(out *Trace, hops []Hop, sink ethtypes.Address, kind SinkKind, amount ethtypes.Wei) {
	out.Paths = append(out.Paths, Path{
		Origin: out.Origin, Sink: sink, Kind: kind, Hops: hops, Amount: amount,
	})
	out.SinkTotals[kind] = out.SinkTotals[kind].Add(amount)
}

// CashoutReport aggregates DominantSink over many origins — the §8.1
// claim quantified: labeled (reported) accounts route through mixers,
// unlabeled ones still reach exchanges.
type CashoutReport struct {
	Origins       int
	ViaMixer      int
	ViaExchange   int
	HeldOrUnknown int
	// LabeledViaMixerFraction is the share of Etherscan-labeled origins
	// whose dominant sink is a mixer.
	LabeledViaMixerFraction float64
}

// Survey traces every origin and aggregates dominant sinks.
func (tr *Tracer) Survey(origins []ethtypes.Address) (*CashoutReport, error) {
	rep := &CashoutReport{}
	labeledTotal, labeledMixer := 0, 0
	for _, origin := range origins {
		t, err := tr.Trace(origin)
		if err != nil {
			return nil, err
		}
		rep.Origins++
		labeled := tr.Labels != nil && tr.Labels.Has(origin, labels.SourceEtherscan)
		if labeled {
			labeledTotal++
		}
		switch t.DominantSink() {
		case SinkMixer:
			rep.ViaMixer++
			if labeled {
				labeledMixer++
			}
		case SinkExchange:
			rep.ViaExchange++
		default:
			rep.HeldOrUnknown++
		}
	}
	if labeledTotal > 0 {
		rep.LabeledViaMixerFraction = float64(labeledMixer) / float64(labeledTotal)
	}
	return rep, nil
}

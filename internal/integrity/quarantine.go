package integrity

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/ethtypes"
	"repro/internal/obs"
)

// ErrBudgetExceeded aborts a run whose quarantine grew past the
// configured -max-quarantine cap: at that point the source is too
// rotten for graceful degradation to be honest.
var ErrBudgetExceeded = errors.New("integrity: quarantine budget exceeded")

// Record is one quarantined response. It describes the rejected bytes'
// provenance, not the (possibly later recovered) true record.
type Record struct {
	// Object is what kind of record was rejected: "tx", "receipt", or
	// "label".
	Object string `json:"object"`
	// Hash identifies the requested record for tx/receipt objects.
	Hash ethtypes.Hash `json:"hash"`
	// Reason is the violated validation rule.
	Reason Reason `json:"reason"`
	// Detail is a short human-readable elaboration.
	Detail string `json:"detail,omitempty"`
}

// DefaultCap bounds the retained per-record detail; counters keep
// counting past it.
const DefaultCap = 1024

// Quarantine is the reason-coded store of rejected records. Counters
// are exact; per-record details are retained up to Cap entries so an
// adversarial source cannot balloon memory. The store is safe for
// concurrent use and checkpointable (Snapshot/Restore implement
// core.QuarantineState).
type Quarantine struct {
	// Cap bounds retained record details (default DefaultCap). Set
	// before first use.
	Cap int

	mu        sync.Mutex
	records   []Record
	dropped   int64
	counts    map[string]int64 // "object/reason" -> rejections
	permanent map[ethtypes.Hash]Reason

	added        *obs.CounterVec
	permanentCtr *obs.Counter
	droppedCtr   *obs.Counter
	size         *obs.Gauge
}

// NewQuarantine builds an empty store, optionally registering
// daas_quarantine_* instruments in reg (nil reg means no-op).
func NewQuarantine(reg *obs.Registry) *Quarantine {
	return &Quarantine{
		counts:       make(map[string]int64),
		permanent:    make(map[ethtypes.Hash]Reason),
		added:        reg.CounterVec("daas_quarantine_records_total", "records quarantined by object kind and reason", "object", "reason"),
		permanentCtr: reg.Counter("daas_quarantine_permanent_total", "records quarantined permanently after exhausting re-fetches"),
		droppedCtr:   reg.Counter("daas_quarantine_dropped_total", "quarantine record details dropped by the retention cap"),
		size:         reg.Gauge("daas_quarantine_size", "quarantine record details currently retained"),
	}
}

func (q *Quarantine) cap() int {
	if q.Cap > 0 {
		return q.Cap
	}
	return DefaultCap
}

// Add records one rejection.
func (q *Quarantine) Add(rec Record) {
	q.mu.Lock()
	q.counts[rec.Object+"/"+string(rec.Reason)]++
	if len(q.records) < q.cap() {
		q.records = append(q.records, rec)
	} else {
		q.dropped++
		q.droppedCtr.Inc()
	}
	size := len(q.records)
	q.mu.Unlock()
	q.added.With(rec.Object, string(rec.Reason)).Inc()
	q.size.Set(int64(size))
}

// MarkPermanent records that h exhausted its re-fetch budget; further
// requests for it short-circuit to core.ErrQuarantined.
func (q *Quarantine) MarkPermanent(h ethtypes.Hash, reason Reason) {
	q.mu.Lock()
	_, known := q.permanent[h]
	if !known {
		q.permanent[h] = reason
	}
	q.mu.Unlock()
	if !known {
		q.permanentCtr.Inc()
	}
}

// Permanent reports whether h is permanently quarantined and why.
func (q *Quarantine) Permanent(h ethtypes.Hash) (Reason, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	r, ok := q.permanent[h]
	return r, ok
}

// Total counts every rejection seen (including detail-dropped ones).
func (q *Quarantine) Total() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var n int64
	for _, v := range q.counts {
		n += v
	}
	return n
}

// PermanentCount counts permanently quarantined records.
func (q *Quarantine) PermanentCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.permanent)
}

// Counts returns the per-"object/reason" rejection counters.
func (q *Quarantine) Counts() map[string]int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]int64, len(q.counts))
	for k, v := range q.counts {
		out[k] = v
	}
	return out
}

// Records returns a copy of the retained record details.
func (q *Quarantine) Records() []Record {
	q.mu.Lock()
	defer q.mu.Unlock()
	return append([]Record(nil), q.records...)
}

// quarantineJSON is the snapshot/export format. Maps serialize with
// sorted keys, so identical contents always produce identical bytes.
type quarantineJSON struct {
	Records   []Record          `json:"records"`
	Dropped   int64             `json:"dropped"`
	Counts    map[string]int64  `json:"counts"`
	Permanent map[string]string `json:"permanent"`
}

func (q *Quarantine) snapshotLocked() quarantineJSON {
	out := quarantineJSON{
		Records:   append([]Record(nil), q.records...),
		Dropped:   q.dropped,
		Counts:    make(map[string]int64, len(q.counts)),
		Permanent: make(map[string]string, len(q.permanent)),
	}
	if out.Records == nil {
		out.Records = []Record{}
	}
	for k, v := range q.counts {
		out.Counts[k] = v
	}
	for h, r := range q.permanent {
		out.Permanent[h.Hex()] = string(r)
	}
	return out
}

// Snapshot serializes the store deterministically; it implements
// core.QuarantineState so checkpoints can carry the quarantine across
// an interrupted build.
func (q *Quarantine) Snapshot() ([]byte, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	buf, err := json.Marshal(q.snapshotLocked())
	if err != nil {
		return nil, fmt.Errorf("integrity: serializing quarantine: %w", err)
	}
	return buf, nil
}

// Restore replaces the store contents with a Snapshot.
func (q *Quarantine) Restore(buf []byte) error {
	var in quarantineJSON
	if err := json.Unmarshal(buf, &in); err != nil {
		return fmt.Errorf("integrity: decoding quarantine snapshot: %w", err)
	}
	permanent := make(map[ethtypes.Hash]Reason, len(in.Permanent))
	for hex, r := range in.Permanent {
		h, err := ethtypes.HexToHash(hex)
		if err != nil {
			return fmt.Errorf("integrity: quarantine snapshot hash: %w", err)
		}
		permanent[h] = Reason(r)
	}
	q.mu.Lock()
	q.records = append([]Record(nil), in.Records...)
	q.dropped = in.Dropped
	q.counts = make(map[string]int64, len(in.Counts))
	for k, v := range in.Counts {
		q.counts[k] = v
	}
	q.permanent = permanent
	size := len(q.records)
	q.mu.Unlock()
	q.size.Set(int64(size))
	return nil
}

// Export writes the store as indented JSON for operators.
func (q *Quarantine) Export(w io.Writer) error {
	q.mu.Lock()
	snap := q.snapshotLocked()
	q.mu.Unlock()
	buf, err := json.MarshalIndent(snap, "", " ")
	if err != nil {
		return fmt.Errorf("integrity: exporting quarantine: %w", err)
	}
	if _, err := w.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("integrity: exporting quarantine: %w", err)
	}
	return nil
}

// Summarize writes a compact reason-coded summary, for -strict failure
// reports.
func (q *Quarantine) Summarize(w io.Writer) error {
	counts := q.Counts()
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if _, err := fmt.Fprintf(w, "quarantine: %d rejection(s), %d record(s) permanently quarantined\n",
		q.Total(), q.PermanentCount()); err != nil {
		return err
	}
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "  %-32s %d\n", k, counts[k]); err != nil {
			return err
		}
	}
	return nil
}

// LabelBudget tracks per-source label rejections against an error
// budget: a community feed is allowed some noise, but a source whose
// rejections exceed the budget fails ingestion loudly instead of
// silently seeding from a poisoned list.
type LabelBudget struct {
	max int64 // rejection allowance per source

	mu      sync.Mutex
	rejects map[string]int64 // "source/reason" -> count
}

// NewLabelBudget returns a budget allowing maxPerSource rejections per
// source (0 = default, 64).
func NewLabelBudget(maxPerSource int) *LabelBudget {
	if maxPerSource <= 0 {
		maxPerSource = 64
	}
	return &LabelBudget{max: int64(maxPerSource), rejects: make(map[string]int64)}
}

// Note records one rejected entry from source. It returns an error only
// when the source's budget is exhausted.
func (b *LabelBudget) Note(source string, reason Reason) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rejects[source+"/"+string(reason)]++
	var total int64
	for k, v := range b.rejects {
		if len(k) > len(source) && k[:len(source)+1] == source+"/" {
			total += v
		}
	}
	if total > b.max {
		return fmt.Errorf("integrity: label source %q exceeded its error budget (%d rejections, budget %d)",
			source, total, b.max)
	}
	return nil
}

// Total counts all rejections across sources.
func (b *LabelBudget) Total() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	var n int64
	for _, v := range b.rejects {
		n += v
	}
	return n
}

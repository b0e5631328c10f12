package screen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"

	"repro/internal/ethtypes"
)

// Record is one listed account as the screening API reports it. The
// string fields alias the snapshot's interned tables, so returning a
// Record by value copies two string headers, never their bytes.
type Record struct {
	Address ethtypes.Address
	Kind    Kind
	// Reason is the human-readable listing reason (one of the Reason*
	// constants for pipeline entries, free text for manual ones).
	Reason string
	// Family is the §7.1 DaaS family name, when clustering attributed
	// one.
	Family string
	// Tainted propagates the family's integrity flag: membership
	// evidence touched quarantined records, so the listing is a lower
	// bound, not a complete picture.
	Tainted bool
	// StaticFlagged is a reserved scam-shape flag. Compile and
	// AccountRecord never set it; a Builder caller may.
	StaticFlagged bool
}

// Record flag bits in the flat flags array.
const (
	flagTainted       = 1 << 0
	flagStaticFlagged = 1 << 1
)

// Snapshot is an immutable compiled screening index. Build one with a
// Builder (or Compile), publish it through an Engine. All lookup
// methods are safe for unlimited concurrent use and never allocate.
type Snapshot struct {
	// Flat record arrays, sorted by address. Parallel by record ID.
	addrs     []ethtypes.Address
	kinds     []Kind
	flags     []uint8
	reasonIDs []uint32
	familyIDs []uint32

	// Interned string tables; index 0 is always "".
	reasons  []string
	families []string

	// index is the open-addressing (linear probing) hash table: each
	// slot holds a record ID or -1 for empty. Power-of-two length, at
	// most half full.
	index []int32
	mask  uint64

	// domains is the sorted normalized phishing-domain table.
	domains []string
}

// hashAddr mixes the 20 address bytes into 64 bits (splitmix64 finalizer
// over the two words plus tail). Deterministic across processes: the
// index layout is a pure function of the record set.
func hashAddr(a *ethtypes.Address) uint64 {
	lo := binary.LittleEndian.Uint64(a[0:8])
	hi := binary.LittleEndian.Uint64(a[8:16])
	tail := uint64(binary.LittleEndian.Uint32(a[16:20]))
	z := lo + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z ^= hi
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= tail
	return z ^ (z >> 31)
}

// Lookup finds the record for an address. The zero-allocation hot
// path: one hash, a linear probe over a flat int32 slot array, and at
// most a handful of 20-byte compares. Nil-safe: a nil snapshot (engine
// before its first swap) lists nothing.
func (s *Snapshot) Lookup(a ethtypes.Address) (Record, bool) {
	if s == nil || len(s.index) == 0 {
		return Record{}, false
	}
	slot := hashAddr(&a) & s.mask
	for {
		id := s.index[slot]
		if id < 0 {
			return Record{}, false
		}
		if s.addrs[id] == a {
			return Record{
				Address:       a,
				Kind:          s.kinds[id],
				Reason:        s.reasons[s.reasonIDs[id]],
				Family:        s.families[s.familyIDs[id]],
				Tainted:       s.flags[id]&flagTainted != 0,
				StaticFlagged: s.flags[id]&flagStaticFlagged != 0,
			}, true
		}
		slot = (slot + 1) & s.mask
	}
}

// LookupDomain reports whether a domain is a confirmed phishing
// deployment. The argument is normalized first, so callers may pass
// raw origin strings; an already-canonical domain takes the
// zero-allocation path.
func (s *Snapshot) LookupDomain(domain string) bool {
	if s == nil || len(s.domains) == 0 {
		return false
	}
	d := NormalizeDomain(domain)
	i := sort.SearchStrings(s.domains, d)
	return i < len(s.domains) && s.domains[i] == d
}

// Len reports the number of listed addresses.
func (s *Snapshot) Len() int {
	if s == nil {
		return 0
	}
	return len(s.addrs)
}

// DomainCount reports the number of listed domains.
func (s *Snapshot) DomainCount() int {
	if s == nil {
		return 0
	}
	return len(s.domains)
}

// Records returns every listed record in address order. Intended for
// re-building and serialization, not the hot path.
func (s *Snapshot) Records() []Record {
	if s == nil {
		return nil
	}
	out := make([]Record, len(s.addrs))
	for id := range s.addrs {
		out[id] = Record{
			Address:       s.addrs[id],
			Kind:          s.kinds[id],
			Reason:        s.reasons[s.reasonIDs[id]],
			Family:        s.families[s.familyIDs[id]],
			Tainted:       s.flags[id]&flagTainted != 0,
			StaticFlagged: s.flags[id]&flagStaticFlagged != 0,
		}
	}
	return out
}

// Domains returns the sorted normalized domain table.
func (s *Snapshot) Domains() []string {
	if s == nil {
		return nil
	}
	return append([]string(nil), s.domains...)
}

// Builder accumulates records and domains, then compiles them into a
// Snapshot. Not safe for concurrent use: guard it (the walletguard
// does) or confine it to the pipeline goroutine. The compiled snapshot
// is independent of insertion order.
type Builder struct {
	recs    map[ethtypes.Address]Record
	domains map[string]bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		recs:    make(map[ethtypes.Address]Record),
		domains: make(map[string]bool),
	}
}

// Add lists one account; a later Add for the same address wins.
func (b *Builder) Add(r Record) {
	b.recs[r.Address] = r
}

// AddDomain lists one phishing domain (normalized on the way in).
func (b *Builder) AddDomain(domain string) {
	d := NormalizeDomain(domain)
	if d != "" {
		b.domains[d] = true
	}
}

// Len reports the number of listed addresses so far.
func (b *Builder) Len() int { return len(b.recs) }

// Build compiles the accumulated entries into an immutable snapshot:
// Apply of every entry onto an empty snapshot. The snapshot is
// independent of insertion order.
func (b *Builder) Build() *Snapshot {
	d := Delta{
		Upserts: make([]Record, 0, len(b.recs)),
		Domains: make([]string, 0, len(b.domains)),
	}
	for _, r := range b.recs {
		d.Upserts = append(d.Upserts, r)
	}
	for dom := range b.domains {
		d.Domains = append(d.Domains, dom)
	}
	return new(Snapshot).Apply(d)
}

// Delta is a change to a snapshot: Upserts list or replace records,
// Removals unlist addresses, and Domains adds phishing domains. It is
// what a snapshot producer ships to keep a copy current.
type Delta struct {
	Upserts  []Record
	Removals []ethtypes.Address
	Domains  []string
}

// Apply returns a new snapshot holding s's entries with d merged in;
// neither s nor d is modified, and a nil s is an empty snapshot. An
// address upserted more than once keeps its last upsert, and an upsert
// wins over a removal of the same address. Records are laid out in
// address order and string tables are interned in first-use order over
// that layout, so the result is byte-identical to a Build of the merged
// record set. It costs one pass over s plus sorting d.
func (s *Snapshot) Apply(d Delta) *Snapshot {
	ups, order := d.Upserts, upsertOrder(d.Upserts)
	rms := slices.Clone(d.Removals)
	slices.SortFunc(rms, func(a, b ethtypes.Address) int { return addrCompare(&a, &b) })
	var base Snapshot
	if s != nil {
		base = *s
	}

	n := len(base.addrs) + len(order)
	out := &Snapshot{
		addrs:     make([]ethtypes.Address, 0, n),
		kinds:     make([]Kind, 0, n),
		flags:     make([]uint8, 0, n),
		reasonIDs: make([]uint32, 0, n),
		familyIDs: make([]uint32, 0, n),
	}
	reasons := newInterner(base.reasons)
	families := newInterner(base.families)
	appendRecord := func(r *Record) {
		out.addrs = append(out.addrs, r.Address)
		out.kinds = append(out.kinds, r.Kind)
		var f uint8
		if r.Tainted {
			f |= flagTainted
		}
		if r.StaticFlagged {
			f |= flagStaticFlagged
		}
		out.flags = append(out.flags, f)
		out.reasonIDs = append(out.reasonIDs, reasons.intern(r.Reason))
		out.familyIDs = append(out.familyIDs, families.intern(r.Family))
	}
	// Merge the base layout with the upserts, both in address order,
	// skipping removed base records.
	i, u, rm := 0, 0, 0
	for i < len(base.addrs) || u < len(order) {
		if i < len(base.addrs) && (u == len(order) || addrCompare(&base.addrs[i], &ups[order[u]].Address) < 0) {
			a := &base.addrs[i]
			for rm < len(rms) && addrCompare(&rms[rm], a) < 0 {
				rm++
			}
			if rm == len(rms) || rms[rm] != *a {
				out.addrs = append(out.addrs, *a)
				out.kinds = append(out.kinds, base.kinds[i])
				out.flags = append(out.flags, base.flags[i])
				out.reasonIDs = append(out.reasonIDs, reasons.remap(base.reasonIDs[i]))
				out.familyIDs = append(out.familyIDs, families.remap(base.familyIDs[i]))
			}
			i++
			continue
		}
		up := &ups[order[u]]
		if i < len(base.addrs) && base.addrs[i] == up.Address {
			i++ // replaced by the upsert
		}
		appendRecord(up)
		u++
	}
	out.reasons, out.families = reasons.table, families.table

	out.domains = slices.Clone(base.domains)
	for _, dom := range d.Domains {
		if dom = NormalizeDomain(dom); dom != "" {
			out.domains = append(out.domains, dom)
		}
	}
	slices.Sort(out.domains)
	out.domains = slices.Compact(out.domains)

	out.buildIndex()
	return out
}

// upsertOrder returns the indices of ups in address order, keeping the
// last of each address.
func upsertOrder(ups []Record) []int32 {
	order := make([]int32, len(ups))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(i, j int32) int {
		if c := addrCompare(&ups[i].Address, &ups[j].Address); c != 0 {
			return c
		}
		return int(i - j)
	})
	out := order[:0]
	for k, i := range order {
		if k+1 < len(order) && ups[order[k+1]].Address == ups[i].Address {
			continue
		}
		out = append(out, i)
	}
	return out
}

func addrCompare(a, b *ethtypes.Address) int { return bytes.Compare(a[:], b[:]) }

// interner rebuilds a string table in first-use order. Strings of the
// old table are remapped through a slice indexed by their old ID, so
// carrying a record over from the base snapshot hashes nothing.
type interner struct {
	table []string
	ids   map[string]uint32
	old   []string
	// oldTo maps an old ID to its new ID plus one; 0 is unassigned.
	oldTo []uint32
}

func newInterner(old []string) *interner {
	return &interner{
		table: []string{""},
		ids:   map[string]uint32{"": 0},
		old:   old,
		oldTo: make([]uint32, len(old)),
	}
}

func (t *interner) intern(v string) uint32 {
	if id, ok := t.ids[v]; ok {
		return id
	}
	id := uint32(len(t.table))
	t.table = append(t.table, v)
	t.ids[v] = id
	return id
}

func (t *interner) remap(old uint32) uint32 {
	if to := t.oldTo[old]; to > 0 {
		return to - 1
	}
	id := t.intern(t.old[old])
	t.oldTo[old] = id + 1
	return id
}

// buildIndex lays out the open-addressing table: power-of-two size
// with load factor ≤ 0.5, so probe chains stay short and the hot path
// rarely touches more than one cache line of slots.
func (s *Snapshot) buildIndex() {
	size := 8
	for size < 2*len(s.addrs) {
		size *= 2
	}
	s.index = make([]int32, size)
	for i := range s.index {
		s.index[i] = -1
	}
	s.mask = uint64(size - 1)
	for id := range s.addrs {
		slot := hashAddr(&s.addrs[id]) & s.mask
		for s.index[slot] >= 0 {
			slot = (slot + 1) & s.mask
		}
		s.index[slot] = int32(id)
	}
}

// snapshotMagic leads the serialized form; bump the version on format
// changes.
var snapshotMagic = []byte("daas-screen/v1\n")

// MarshalBinary serializes the snapshot deterministically: the same
// logical content always yields identical bytes (records in address
// order, tables in interning order, domains sorted). The hash index is
// not serialized — it is a pure function of the records and is rebuilt
// on load.
func (s *Snapshot) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	writeUvarint(&buf, uint64(len(s.reasons)))
	for _, r := range s.reasons {
		writeString(&buf, r)
	}
	writeUvarint(&buf, uint64(len(s.families)))
	for _, f := range s.families {
		writeString(&buf, f)
	}
	writeUvarint(&buf, uint64(len(s.addrs)))
	for id := range s.addrs {
		buf.Write(s.addrs[id][:])
		buf.WriteByte(byte(s.kinds[id]))
		buf.WriteByte(s.flags[id])
		writeUvarint(&buf, uint64(s.reasonIDs[id]))
		writeUvarint(&buf, uint64(s.familyIDs[id]))
	}
	writeUvarint(&buf, uint64(len(s.domains)))
	for _, d := range s.domains {
		writeString(&buf, d)
	}
	return buf.Bytes(), nil
}

// UnmarshalSnapshot parses serialized snapshot bytes and rebuilds the
// hash index.
func UnmarshalSnapshot(data []byte) (*Snapshot, error) {
	if !bytes.HasPrefix(data, snapshotMagic) {
		return nil, fmt.Errorf("screen: not a %q artifact", bytes.TrimSuffix(snapshotMagic, []byte("\n")))
	}
	r := bytes.NewReader(data[len(snapshotMagic):])
	s := &Snapshot{}
	var err error
	if s.reasons, err = readStrings(r); err != nil {
		return nil, fmt.Errorf("screen: reason table: %w", err)
	}
	if s.families, err = readStrings(r); err != nil {
		return nil, fmt.Errorf("screen: family table: %w", err)
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("screen: record count: %w", err)
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("screen: record count %d exceeds remaining input", n)
	}
	s.addrs = make([]ethtypes.Address, n)
	s.kinds = make([]Kind, n)
	s.flags = make([]uint8, n)
	s.reasonIDs = make([]uint32, n)
	s.familyIDs = make([]uint32, n)
	for id := uint64(0); id < n; id++ {
		if _, err := r.Read(s.addrs[id][:]); err != nil {
			return nil, fmt.Errorf("screen: record %d address: %w", id, err)
		}
		k, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("screen: record %d kind: %w", id, err)
		}
		s.kinds[id] = Kind(k)
		if s.flags[id], err = r.ReadByte(); err != nil {
			return nil, fmt.Errorf("screen: record %d flags: %w", id, err)
		}
		ri, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("screen: record %d reason id: %w", id, err)
		}
		fi, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("screen: record %d family id: %w", id, err)
		}
		if ri >= uint64(len(s.reasons)) || fi >= uint64(len(s.families)) {
			return nil, fmt.Errorf("screen: record %d table index out of range", id)
		}
		s.reasonIDs[id] = uint32(ri)
		s.familyIDs[id] = uint32(fi)
	}
	if s.domains, err = readStrings(r); err != nil {
		return nil, fmt.Errorf("screen: domain table: %w", err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("screen: %d trailing bytes after snapshot", r.Len())
	}
	s.buildIndex()
	return s, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func readStrings(r *bytes.Reader) ([]string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, fmt.Errorf("count %d exceeds remaining input", n)
	}
	out := make([]string, n)
	for i := range out {
		l, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if l > uint64(r.Len()) {
			return nil, fmt.Errorf("string length %d exceeds remaining input", l)
		}
		b := make([]byte, l)
		if _, err := r.Read(b); err != nil {
			return nil, err
		}
		out[i] = string(b)
	}
	return out, nil
}

package evmstatic

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"sort"

	"repro/internal/ethabi"
	"repro/internal/ethtypes"
)

// Family identifies one static fingerprint the detection engine can
// recognize. Each family corresponds to a scam shape from the paper or
// its related work; DESIGN.md maps families to citations and the sink
// patterns they match.
type Family string

// Fingerprint families.
const (
	// FamilyApprovalPhish marks contracts whose entrypoints forward
	// victim calldata into allowance-consuming token calls
	// (transferFrom/permit/approve/increaseAllowance/setApprovalForAll)
	// against a constant attacker-controlled spender.
	FamilyApprovalPhish Family = "approval-phishing"
	// FamilyProxy marks EIP-1167 minimal proxies and
	// DELEGATECALL-to-constant patterns that hide implementation logic
	// behind a forwarding contract.
	FamilyProxy Family = "proxy"
	// FamilyPyramid marks Forsage-style fixed payout matrices: several
	// fixed-target value-bearing CALLs with level-indexed constant
	// amounts.
	FamilyPyramid Family = "pyramid-payout"
)

// Fingerprint is one static detection verdict with its evidence.
type Fingerprint struct {
	Family Family
	// Selector is the dispatched entrypoint owning the finding;
	// InFallback marks a fallback-resident finding (Selector zero).
	Selector   [4]byte
	InFallback bool

	// Approval-phishing evidence: the forwarded token-call selector and
	// the constant spender/recipient it grants to.
	SinkSelector [4]byte
	Spender      ethtypes.Address

	// Proxy evidence: the implementation address when it resolved to a
	// constant, and whether the bytecode is the EIP-1167 minimal-proxy
	// pattern.
	Impl      ethtypes.Address
	ImplKnown bool
	Minimal   bool

	// Pyramid evidence: number of fixed payout calls and distinct
	// constant amounts among them.
	Legs   int
	Levels int

	// Detail is a short human-readable evidence summary.
	Detail string
}

// String renders "approval-phishing[0xdeadbeef]: ..." for logs and CLI
// output.
func (f Fingerprint) String() string {
	where := fmt.Sprintf("0x%s", hex.EncodeToString(f.Selector[:]))
	if f.InFallback {
		where = "fallback"
	}
	if f.Family == FamilyProxy {
		where = "runtime"
	}
	return fmt.Sprintf("%s[%s]: %s", f.Family, where, f.Detail)
}

// Approval-phishing sink selectors: the token entrypoints a drainer
// forwards harvested victim consent into (paper §6.1, §7.2; the
// payload-based phishing taxonomy of the related transaction-phishing
// work). Plain transfer(address,uint256) is deliberately absent — a
// benign payment router forwards calldata into transfer without ever
// touching an allowance.
var (
	sinkTransferFrom      = ethabi.Selector("transferFrom(address,address,uint256)")
	sinkApprove           = ethabi.Selector("approve(address,uint256)")
	sinkPermit            = ethabi.Selector("permit(address,address,uint256)")
	sinkIncreaseAllowance = ethabi.Selector("increaseAllowance(address,uint256)")
	sinkSetApprovalAll    = ethabi.Selector("setApprovalForAll(address,bool)")
)

// approvalSink describes one sink selector: its name and which payload
// word carries the spender/recipient the attacker must control.
type approvalSink struct {
	name       string
	spenderArg int
}

func approvalSinks() map[[4]byte]approvalSink {
	return map[[4]byte]approvalSink{
		sinkTransferFrom:      {name: "transferFrom", spenderArg: 1},
		sinkApprove:           {name: "approve", spenderArg: 0},
		sinkPermit:            {name: "permit", spenderArg: 1},
		sinkIncreaseAllowance: {name: "increaseAllowance", spenderArg: 0},
		sinkSetApprovalAll:    {name: "setApprovalForAll", spenderArg: 0},
	}
}

// ApprovalSinkSpenderArg reports whether sel is one of the
// allowance-consuming sink selectors and, if so, which ABI argument
// position carries the spender/recipient. Exported so the dynamic
// prober judges recorded call payloads against the same sink set the
// static engine uses.
func ApprovalSinkSpenderArg(sel [4]byte) (int, bool) {
	s, ok := approvalSinks()[sel]
	return s.spenderArg, ok
}

// isAddressShaped reports a nonzero constant that fits in 160 bits.
func isAddressShaped(v Value) bool {
	return v.isConst() && v.Const.Sign() > 0 && v.Const.BitLen() <= 160
}

// eip1167Prefix/Suffix frame the canonical minimal-proxy runtime:
// prefix ++ 20-byte implementation address ++ suffix.
var (
	eip1167Prefix = []byte{0x36, 0x3d, 0x3d, 0x37, 0x3d, 0x3d, 0x3d, 0x36, 0x3d, 0x73}
	eip1167Suffix = []byte{0x5a, 0xf4, 0x3d, 0x82, 0x80, 0x3e, 0x90, 0x3d, 0x91, 0x60, 0x2b, 0x57, 0xfd, 0x5b, 0xf3}
)

// EIP1167Runtime builds the canonical 45-byte minimal-proxy runtime
// forwarding every call to impl — the exact byte string ParseEIP1167
// recognizes.
func EIP1167Runtime(impl ethtypes.Address) []byte {
	out := make([]byte, 0, len(eip1167Prefix)+20+len(eip1167Suffix))
	out = append(out, eip1167Prefix...)
	out = append(out, impl[:]...)
	out = append(out, eip1167Suffix...)
	return out
}

// ParseEIP1167 recognizes the canonical minimal-proxy runtime and
// returns the embedded implementation address.
func ParseEIP1167(code []byte) (ethtypes.Address, bool) {
	if len(code) != len(eip1167Prefix)+20+len(eip1167Suffix) {
		return ethtypes.Address{}, false
	}
	if !bytes.HasPrefix(code, eip1167Prefix) || !bytes.HasSuffix(code, eip1167Suffix) {
		return ethtypes.Address{}, false
	}
	var impl ethtypes.Address
	copy(impl[:], code[len(eip1167Prefix):len(eip1167Prefix)+20])
	return impl, true
}

// entryPoint pairs a fingerprint location with its CFG entry block.
type entryPoint struct {
	sel        [4]byte
	inFallback bool
	block      int
}

// detectFingerprints runs the three fingerprint analyzers over a
// finished abstract interpretation.
func detectFingerprints(code []byte, a *analysis) []Fingerprint {
	g := a.g
	var out []Fingerprint

	var entries []entryPoint
	for _, e := range selectorOrder(a) {
		entries = append(entries, entryPoint{sel: e.sel, block: e.target})
	}
	if a.fallbackPC >= 0 {
		if fb, ok := g.BlockAt(a.fallbackPC); ok {
			entries = append(entries, entryPoint{inFallback: true, block: fb})
		}
	}

	for _, ep := range entries {
		body := reachableFrom(g, ep.block)
		out = append(out, detectApprovalPhish(a, ep, body)...)
		if fp, ok := detectPyramid(g, a, ep, body); ok {
			out = append(out, fp)
		}
	}
	out = append(out, detectProxy(code, a)...)
	return out
}

// detectApprovalPhish flags calls inside one entrypoint's body that
// forward calldata-derived data into an allowance-consuming token call
// whose spender argument is a hardcoded address. All three legs must
// hold: the payload selector is a known sink, the spender position is a
// constant address, and the call target or payload carries calldata
// taint (the victim-supplied token/owner). A benign allowance helper
// whose spender also comes from calldata fails the constant-spender
// leg; a multicall forwarding opaque victim payloads fails the
// known-selector leg.
func detectApprovalPhish(a *analysis, ep entryPoint, body map[int]bool) []Fingerprint {
	sinks := approvalSinks()
	var out []Fingerprint
	for _, c := range sortedCalls(a) {
		if !body[c.block] || c.kind == callDelegate || !c.paySelKnown {
			continue
		}
		sink, ok := sinks[c.paySel]
		if !ok {
			continue
		}
		if sink.spenderArg >= len(c.args) || !isAddressShaped(c.args[sink.spenderArg]) {
			continue
		}
		if !c.payloadTainted && !c.to.Tainted {
			continue
		}
		spender := ethtypes.BytesToAddress(c.args[sink.spenderArg].Const.Bytes())
		out = append(out, Fingerprint{
			Family:       FamilyApprovalPhish,
			Selector:     ep.sel,
			InFallback:   ep.inFallback,
			SinkSelector: c.paySel,
			Spender:      spender,
			Detail: fmt.Sprintf("forwards calldata into %s with constant spender %s",
				sink.name, spender),
		})
	}
	return out
}

// detectPyramid flags the Forsage payout shape inside one entrypoint:
// a path an arbitrary value-bearing caller can complete that fans the
// deposit out over at least three fixed-target calls with level-indexed
// constant amounts. Fixed targets are push constants or single storage
// slots (the matrix table); requiring at least two distinct amounts
// separates the level schedule from equal-share airdrops, and the
// success-reachability check rejects owner-gated distribution helpers.
func detectPyramid(g *CFG, a *analysis, ep entryPoint, body map[int]bool) (Fingerprint, bool) {
	if !successReachable(g, a.edgeConds, ep.block) {
		return Fingerprint{}, false
	}
	legs := 0
	amounts := make(map[string]bool)
	for _, c := range sortedCalls(a) {
		if !body[c.block] || c.kind != callPlain {
			continue
		}
		fixedTarget := isAddressShaped(c.to) || (c.to.Kind == KSLoad && c.to.Aux != nil)
		if !fixedTarget {
			continue
		}
		if !c.value.isConst() || c.value.Const.Sign() <= 0 {
			continue
		}
		legs++
		amounts[c.value.Const.Text(16)] = true
	}
	if legs < 3 || len(amounts) < 2 {
		return Fingerprint{}, false
	}
	return Fingerprint{
		Family:     FamilyPyramid,
		Selector:   ep.sel,
		InFallback: ep.inFallback,
		Legs:       legs,
		Levels:     len(amounts),
		Detail: fmt.Sprintf("%d fixed payout calls over %d constant amounts",
			legs, len(amounts)),
	}, true
}

// detectProxy flags forwarding shapes: the EIP-1167 minimal-proxy byte
// pattern, and DELEGATECALLs whose target is a push constant or a
// constant storage slot (upgradeable-proxy style). Storage resolution
// turns slot targets into concrete implementation addresses.
func detectProxy(code []byte, a *analysis) []Fingerprint {
	if impl, ok := ParseEIP1167(code); ok {
		return []Fingerprint{{
			Family:    FamilyProxy,
			Impl:      impl,
			ImplKnown: true,
			Minimal:   true,
			Detail:    fmt.Sprintf("EIP-1167 minimal proxy for %s", impl),
		}}
	}
	var out []Fingerprint
	for _, c := range sortedCalls(a) {
		if c.kind != callDelegate {
			continue
		}
		switch {
		case isAddressShaped(c.to):
			impl := ethtypes.BytesToAddress(c.to.Const.Bytes())
			out = append(out, Fingerprint{
				Family:    FamilyProxy,
				Impl:      impl,
				ImplKnown: true,
				Detail:    fmt.Sprintf("delegatecall to constant %s", impl),
			})
		case c.to.Kind == KSLoad && c.to.Aux != nil:
			out = append(out, Fingerprint{
				Family: FamilyProxy,
				Detail: fmt.Sprintf("delegatecall to storage slot %s", c.to.Aux),
			})
		}
	}
	return out
}

// FamilyNames returns the sorted, deduplicated family labels of fps —
// the tag set the pipeline attaches to dataset contract records.
func FamilyNames(fps []Fingerprint) []string {
	seen := make(map[string]bool)
	for _, fp := range fps {
		seen[string(fp.Family)] = true
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// maxProxyDepth bounds proxy-chain resolution: a proxy pointing at a
// proxy pointing at the implementation is real (clone factories over
// upgradeable targets); unbounded chains are adversarial.
const maxProxyDepth = 4

// CodeResolver supplies deployed runtime bytecode for proxy-implementation
// resolution (chain state or an RPC code fetch).
type CodeResolver func(addr ethtypes.Address) ([]byte, error)

// AnalyzeResolved analyzes runtime bytecode and, when the code is a
// proxy with a constant implementation, follows the chain (bounded by
// maxProxyDepth) so drainer logic cannot hide behind a forwarder: the
// returned analysis describes the final implementation, with the proxy
// fingerprints of every hop prepended and ProxyImpl recording the
// resolved address. Without a resolver — or when the implementation
// address stayed symbolic — the proxy's own (empty) analysis is
// returned with the proxy fingerprint attached.
func AnalyzeResolved(code []byte, storage Storage, resolve CodeResolver) *StaticAnalysis {
	var hops []Fingerprint
	cur := code
	curStorage := storage
	for depth := 0; ; depth++ {
		rep := AnalyzeRuntime(cur, curStorage)
		proxies := proxyPrints(rep.Fingerprints)
		if len(proxies) == 0 || resolve == nil || depth >= maxProxyDepth {
			rep.Fingerprints = append(hops, rep.Fingerprints...)
			if len(hops) > 0 {
				rep.ProxyResolved = true
				rep.ProxyImpl = hops[len(hops)-1].Impl
			}
			return rep
		}
		next := proxies[0]
		if !next.ImplKnown {
			rep.Fingerprints = append(hops, rep.Fingerprints...)
			return rep
		}
		implCode, err := resolve(next.Impl)
		if err != nil || len(implCode) == 0 {
			rep.Fingerprints = append(hops, rep.Fingerprints...)
			return rep
		}
		hops = append(hops, proxies...)
		cur = implCode
		// The implementation runs under the proxy's storage via
		// DELEGATECALL, so the proxy's storage environment carries over.
		curStorage = storage
	}
}

func proxyPrints(fps []Fingerprint) []Fingerprint {
	var out []Fingerprint
	for _, fp := range fps {
		if fp.Family == FamilyProxy {
			out = append(out, fp)
		}
	}
	return out
}

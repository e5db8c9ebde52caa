package rvm

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Tiered execution policy. Tier-0 is the switch interpreter on pooled
// flat frames, augmented (under TierAuto) with lightweight profiling:
// per-method invocation and backedge counters and per-call-site
// receiver-class histograms. When a method crosses a threshold it is
// quickened into tier-1 — token-threaded dispatch over superinstructions
// with inline caches (see quicken.go / tier1.go).
type TierPolicy uint8

const (
	// TierAuto profiles in tier-0 and quickens hot methods (default).
	TierAuto TierPolicy = iota
	// TierBaseline pins execution to tier-0 with profiling disabled —
	// the honest baseline for tier-up measurements (-rvm.tier=0).
	TierBaseline
	// TierQuick quickens every method on first invocation
	// (-rvm.tier=1); used by the differential tier tests.
	TierQuick
)

// DefaultTier is the policy NewInterp installs; the -rvm.tier CLI flag
// overrides it process-wide before workloads construct interpreters.
var DefaultTier = TierAuto

// Tier-up thresholds (package variables so tests can lower them). A
// method quickens when it accumulates TierUpInvocations calls or
// TierUpBackedges taken backward branches, whichever comes first; the
// backedge trigger performs on-stack replacement at the next loop header.
var (
	TierUpInvocations int64 = 12
	TierUpBackedges   int64 = 48
)

// mstate is the per-interpreter tiering state of one method. It lives in
// Interp.states — never on the shared *Method — so concurrent
// interpreters over one Program stay race-free.
type mstate struct {
	m        *Method
	verr     error // the verifier's error; the method never runs
	noQuick  bool  // quickening failed
	maxStack int
	depths   []int32 // per-pc entry depth from verification
	charges  []int32 // per-leader block sizes, charged as fuel on entry

	invocations int64
	backedges   int64
	sites       map[int]*recvProf // tier-0 receiver-class histograms

	q *qcode // non-nil once quickened

	flushedInv, flushedBack int64 // profile-collector delta bookkeeping
}

// recvProf is a tier-0 call-site receiver histogram; its top entries seed
// the tier-1 inline cache at quicken time.
type recvProf struct {
	classes [icWidth]*Class
	counts  [icWidth]int64
}

func (rp *recvProf) note(c *Class) {
	for i := 0; i < icWidth; i++ {
		if rp.classes[i] == c {
			rp.counts[i]++
			return
		}
		if rp.classes[i] == nil {
			rp.classes[i] = c
			rp.counts[i] = 1
			return
		}
	}
}

// state returns (creating on first use) the tiering state for a method,
// verifying it once per interpreter.
func (vm *Interp) state(m *Method) *mstate {
	st := vm.states[m]
	if st != nil {
		return st
	}
	st = &mstate{m: m}
	st.maxStack, st.depths, st.charges, st.verr = Verify(m)
	if vm.states == nil {
		vm.states = make(map[*Method]*mstate)
	}
	vm.states[m] = st
	return st
}

func (st *mstate) profileSite(pc int, c *Class) {
	if st.sites == nil {
		st.sites = make(map[int]*recvProf)
	}
	rp := st.sites[pc]
	if rp == nil {
		rp = &recvProf{}
		st.sites[pc] = rp
	}
	rp.note(c)
}

// --- Global profile collector -------------------------------------------
//
// Enabled by the -rvm.profile flag: interpreters flush per-method and
// per-site deltas here when a top-level Call completes. The report drives
// superinstruction selection (per-opcode execution counts at both tiers)
// and IC tuning (hit/miss rates, cache degree per site).

var profilingEnabled atomic.Bool

// EnableProfiling turns the global profile collector on.
func EnableProfiling() { profilingEnabled.Store(true) }

// DisableProfiling turns the collector off (collected data is kept).
func DisableProfiling() { profilingEnabled.Store(false) }

// ResetProfile discards all collected profile data.
func ResetProfile() {
	profMu.Lock()
	defer profMu.Unlock()
	profMethods = map[string]*MethodProfile{}
	profOpcodes = [numOpcodes]int64{}
	profQOps = [qopCount]int64{}
}

// SiteProfile reports one call or field site of a quickened method.
type SiteProfile struct {
	PC           int
	Kind         string // invokevirtual / invokeinterface / invokehandle / getfield / putfield
	Sym          string
	Hits, Misses int64
	Degree       int // occupied IC entries (0 = never executed, 1 = monomorphic)
}

// State describes the inline-cache state the site settled into.
func (s SiteProfile) State() string {
	switch {
	case s.Hits+s.Misses == 0:
		return "cold"
	case s.Degree <= 1:
		return "monomorphic"
	case s.Degree < icWidth:
		return "polymorphic"
	default:
		return "megamorphic"
	}
}

// MethodProfile aggregates one method's tiering profile across all
// flushed interpreters.
type MethodProfile struct {
	Name        string
	Invocations int64
	Backedges   int64
	Quickened   bool
	Sites       []SiteProfile
}

var (
	profMu      sync.Mutex
	profMethods = map[string]*MethodProfile{}
	profOpcodes [numOpcodes]int64
	profQOps    [qopCount]int64
)

// flushProfile merges this interpreter's tiering state into the global
// collector as deltas, so repeated Calls on one interpreter do not
// double-count.
func (vm *Interp) flushProfile() {
	profMu.Lock()
	defer profMu.Unlock()
	for i := range vm.opProf {
		profOpcodes[i] += vm.opProf[i]
		vm.opProf[i] = 0
	}
	for i := range vm.qopProf {
		profQOps[i] += vm.qopProf[i]
		vm.qopProf[i] = 0
	}
	for m, st := range vm.states {
		dInv := st.invocations - st.flushedInv
		dBack := st.backedges - st.flushedBack
		var live []*siteIC
		if st.q != nil {
			live = st.q.sites
		}
		if dInv == 0 && dBack == 0 && len(live) == 0 {
			continue
		}
		st.flushedInv, st.flushedBack = st.invocations, st.backedges
		name := m.QualifiedName()
		mp := profMethods[name]
		if mp == nil {
			mp = &MethodProfile{Name: name}
			profMethods[name] = mp
		}
		mp.Invocations += dInv
		mp.Backedges += dBack
		mp.Quickened = mp.Quickened || st.q != nil
		for _, ic := range live {
			dh := ic.hits - ic.flushedHits
			dm := ic.misses - ic.flushedMisses
			if dh == 0 && dm == 0 {
				continue
			}
			ic.flushedHits, ic.flushedMisses = ic.hits, ic.misses
			found := false
			for i := range mp.Sites {
				if mp.Sites[i].PC == ic.pc {
					mp.Sites[i].Hits += dh
					mp.Sites[i].Misses += dm
					if ic.n > mp.Sites[i].Degree {
						mp.Sites[i].Degree = ic.n
					}
					found = true
					break
				}
			}
			if !found {
				mp.Sites = append(mp.Sites, SiteProfile{
					PC: ic.pc, Kind: ic.kind.String(), Sym: ic.sym,
					Hits: dh, Misses: dm, Degree: ic.n,
				})
			}
		}
	}
}

// ProfileMethods returns the collected per-method profiles, hottest
// (most-invoked) first.
func ProfileMethods() []*MethodProfile {
	profMu.Lock()
	defer profMu.Unlock()
	out := make([]*MethodProfile, 0, len(profMethods))
	for _, mp := range profMethods {
		cp := *mp
		cp.Sites = append([]SiteProfile(nil), mp.Sites...)
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Invocations != out[j].Invocations {
			return out[i].Invocations > out[j].Invocations
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ICHitRate returns the aggregate inline-cache hit rate over every
// invoke site in the collected profile (1.0 when no site executed).
func ICHitRate() float64 {
	var hits, total int64
	for _, mp := range ProfileMethods() {
		for _, s := range mp.Sites {
			if s.Kind == "getfield" || s.Kind == "putfield" {
				continue
			}
			hits += s.Hits
			total += s.Hits + s.Misses
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hits) / float64(total)
}

// WriteProfile renders the collected profile: the top-N hot methods with
// their call-site IC states, then the per-opcode (tier-0) and
// per-superinstruction (tier-1) execution histograms.
func WriteProfile(w io.Writer, topN int) {
	methods := ProfileMethods()
	profMu.Lock()
	ops := profOpcodes
	qops := profQOps
	profMu.Unlock()

	fmt.Fprintf(w, "=== rvm profile: %d methods, IC hit rate %.1f%% ===\n",
		len(methods), 100*ICHitRate())
	if topN > len(methods) {
		topN = len(methods)
	}
	for _, mp := range methods[:topN] {
		tier := "tier-0"
		if mp.Quickened {
			tier = "tier-1"
		}
		fmt.Fprintf(w, "%-40s %s  inv=%d backedges=%d\n", mp.Name, tier, mp.Invocations, mp.Backedges)
		sort.Slice(mp.Sites, func(i, j int) bool { return mp.Sites[i].PC < mp.Sites[j].PC })
		for _, s := range mp.Sites {
			total := s.Hits + s.Misses
			rate := 0.0
			if total > 0 {
				rate = 100 * float64(s.Hits) / float64(total)
			}
			fmt.Fprintf(w, "    pc=%-4d %-15s %-24s %-12s hits=%-10d misses=%-6d (%.1f%%)\n",
				s.PC, s.Kind, s.Sym, s.State(), s.Hits, s.Misses, rate)
		}
	}
	fmt.Fprintln(w, "--- tier-0 opcode counts ---")
	writeHistogram(w, ops[:], func(i int) string { return Opcode(i).String() })
	fmt.Fprintln(w, "--- tier-1 superinstruction counts ---")
	writeHistogram(w, qops[:], func(i int) string { return qop(i).String() })
}

func writeHistogram(w io.Writer, counts []int64, name func(int) string) {
	type row struct {
		name  string
		count int64
	}
	var rows []row
	for i, c := range counts {
		if c > 0 {
			rows = append(rows, row{name(i), c})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].name < rows[j].name
	})
	for _, r := range rows {
		fmt.Fprintf(w, "    %-20s %d\n", r.name, r.count)
	}
}

package koala

import "repro/internal/sim"

// ProcessorInfo is what the processor information provider (PIP) reports for
// one cluster: totals and idle counts as observed at the monitoring
// infrastructure. Background load from users who bypass KOALA is visible
// only through the Idle figure (§V-B).
type ProcessorInfo struct {
	Total int
	Idle  int
}

// NetworkInfo is what the network information provider (NIP) reports for a
// pair of sites.
type NetworkInfo struct {
	LatencyMS     float64
	BandwidthMBps float64
}

// siteIndex is the fixed name↔dense-index mapping of a grid's sites. Sites
// never change after construction, so one index is shared by every snapshot
// and by the scheduler's per-site bookkeeping slices.
type siteIndex struct {
	names  []string
	byName map[string]int
}

func newSiteIndex(names []string) *siteIndex {
	idx := &siteIndex{names: names, byName: make(map[string]int, len(names))}
	for i, n := range names {
		idx.byName[n] = i
	}
	return idx
}

// Snapshot is one consistent view of the grid as assembled by the KOALA
// information service. Scheduling and malleability decisions are made
// against snapshots, never against live cluster state — this is what makes
// the scheduler resilient to (and aware of) background load only at polling
// granularity.
//
// A snapshot is backed by a slice indexed by the grid's stable site index
// (position i is the i-th site handed to NewKIS). Snapshots returned by
// KIS.Refresh reuse buffers: a snapshot stays valid until the next-but-one
// Refresh, which covers every consumer in the polling loop (all consume the
// snapshot within the event that obtained it).
type Snapshot struct {
	Time float64

	procs []ProcessorInfo
	idx   *siteIndex
}

// NewSnapshot builds a standalone snapshot over parallel name/info slices
// (position i of infos describes names[i]). It is intended for tests and
// tools; the scheduler's snapshots come from KIS.Refresh.
func NewSnapshot(time float64, names []string, infos []ProcessorInfo) Snapshot {
	if len(names) != len(infos) {
		panic("koala: NewSnapshot with mismatched names/infos")
	}
	return Snapshot{Time: time, procs: infos, idx: newSiteIndex(names)}
}

// Len returns the number of sites in the snapshot.
func (s Snapshot) Len() int { return len(s.procs) }

// At returns the processor info of the site with dense index i.
func (s Snapshot) At(i int) ProcessorInfo { return s.procs[i] }

// IdleAt returns the idle processor count of the site with dense index i.
func (s Snapshot) IdleAt(i int) int { return s.procs[i].Idle }

// SiteName returns the name of the site with dense index i.
func (s Snapshot) SiteName(i int) string { return s.idx.names[i] }

// Info returns the processor info of the named cluster (zero if unknown).
func (s Snapshot) Info(site string) ProcessorInfo {
	if s.idx == nil {
		return ProcessorInfo{}
	}
	i, ok := s.idx.byName[site]
	if !ok {
		return ProcessorInfo{}
	}
	return s.procs[i]
}

// Idle returns the idle processor count of the named cluster (0 if unknown).
func (s Snapshot) Idle(site string) int { return s.Info(site).Idle }

// TotalIdle sums idle processors over all clusters.
func (s Snapshot) TotalIdle() int {
	total := 0
	for _, p := range s.procs {
		total += p.Idle
	}
	return total
}

// KIS is the KOALA information service (§IV-A): it aggregates a processor
// information provider, a network information provider and a replica
// location service, and serves snapshots to the scheduler.
type KIS struct {
	engine *sim.Engine
	sites  []*Site
	idx    *siteIndex

	latency map[[2]string]NetworkInfo

	refreshes uint64
	// bufs double-buffer the snapshot storage: Refresh writes into the
	// buffer the *previous* snapshot does not use, so the hot path never
	// allocates and the most recent Last() snapshot is never overwritten
	// by the next Refresh (only by the one after it).
	bufs [2][]ProcessorInfo
	cur  int
	last Snapshot
}

// SharedIndex is an immutable site index table prepared once per sweep
// point and shared read-only by the KIS of every replication (the grids
// themselves are rebuilt per replication — only the name↔index mapping,
// which depends solely on the grid topology, is shared). Build one with
// PrepareIndex and pass it through Config.Index.
type SharedIndex struct {
	idx *siteIndex
}

// PrepareIndex builds a shared site index for grids whose sites carry the
// given names, in order. The names are copied; the result is safe for
// concurrent use.
func PrepareIndex(names []string) *SharedIndex {
	return &SharedIndex{idx: newSiteIndex(append([]string(nil), names...))}
}

// matches reports whether the shared index describes exactly these sites.
func (si *SharedIndex) matches(sites []*Site) bool {
	if si == nil || len(si.idx.names) != len(sites) {
		return false
	}
	for i, s := range sites {
		if si.idx.names[i] != s.Name() {
			return false
		}
	}
	return true
}

// NewKIS builds the information service over the given sites. The order of
// sites defines the grid's stable site index.
func NewKIS(engine *sim.Engine, sites []*Site) *KIS {
	return newKIS(engine, sites, nil)
}

// newKIS builds the information service, reusing the shared site index
// when one is provided and matches the sites (otherwise a fresh index is
// built, so a stale or mismatched table can never corrupt lookups).
func newKIS(engine *sim.Engine, sites []*Site, shared *SharedIndex) *KIS {
	var idx *siteIndex
	if shared.matches(sites) {
		idx = shared.idx
	} else {
		names := make([]string, len(sites))
		for i, s := range sites {
			names[i] = s.Name()
		}
		idx = newSiteIndex(names)
	}
	k := &KIS{engine: engine, sites: sites, idx: idx, latency: make(map[[2]string]NetworkInfo)}
	k.bufs[0] = make([]ProcessorInfo, len(sites))
	k.bufs[1] = make([]ProcessorInfo, len(sites))
	k.Refresh()
	return k
}

// SetNetworkInfo records NIP data for the (from, to) site pair.
func (k *KIS) SetNetworkInfo(from, to string, info NetworkInfo) {
	k.latency[[2]string{from, to}] = info
}

// Network returns NIP data for the (from, to) site pair; the zero value
// means "unknown".
func (k *KIS) Network(from, to string) NetworkInfo {
	return k.latency[[2]string{from, to}]
}

// Refresh polls the providers and captures a new snapshot, returning it.
// The scheduler calls this on its polling tick (§V-B), which is how changes
// in background load become visible. The returned snapshot reuses pooled
// storage and stays valid until the next-but-one Refresh.
func (k *KIS) Refresh() Snapshot {
	k.cur ^= 1
	buf := k.bufs[k.cur]
	for i, s := range k.sites {
		buf[i] = k.probe(s)
	}
	k.refreshes++
	k.last = Snapshot{Time: k.engine.Now(), procs: buf, idx: k.idx}
	return k.last
}

// probe reads one site's processor information from the providers.
func (k *KIS) probe(s *Site) ProcessorInfo {
	return ProcessorInfo{Total: s.Cluster().Nodes(), Idle: s.Cluster().Idle()}
}

// Last returns the most recent snapshot without refreshing.
func (k *KIS) Last() Snapshot { return k.last }

// Refreshes returns how many snapshots have been captured.
func (k *KIS) Refreshes() uint64 { return k.refreshes }

// ReplicaSites implements the replica location service: it returns the
// names of the sites holding all of the given files. With no files required
// it returns every site.
func (k *KIS) ReplicaSites(files []string) []string {
	var out []string
	for _, s := range k.sites {
		all := true
		for _, f := range files {
			if !s.HasFile(f) {
				all = false
				break
			}
		}
		if all {
			out = append(out, s.Name())
		}
	}
	return out
}

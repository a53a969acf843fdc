package graph

// Stamp is the epoch-stamped visited set shared by the scratch families in
// the repository (BFSScratch, SubgraphScratch, partition.Workspace's
// coarse-adjacency and region-growing marks). A
// traversal opens a new epoch with Begin instead of clearing its arrays,
// so starting one costs O(1) rather than O(N); per-node liveness is
// stamp[v] == epoch. Centralizing the rules here (growth resets the epoch,
// wraparound clears and restarts) keeps every kernel's ownership story
// identical: a Stamp — like the scratch that embeds it — is single-owner
// state, not safe for concurrent use, and anything guarded by it is valid
// only until the next Begin.
type Stamp struct {
	epoch int32
	marks []int32
}

// Begin sizes the stamp for ids in [0, n) and opens a new epoch. It reports
// whether the backing array was (re)grown, so embedding scratch types know
// to grow their own parallel arrays.
func (s *Stamp) Begin(n int) (grown bool) {
	if len(s.marks) < n {
		s.marks = make([]int32, n)
		s.epoch = 0
		grown = true
	}
	s.epoch++
	if s.epoch < 0 { // epoch wrapped: clear marks and restart
		for i := range s.marks {
			s.marks[i] = 0
		}
		s.epoch = 1
	}
	return grown
}

// Visit marks v live in the current epoch and reports whether this was v's
// first visit since Begin.
func (s *Stamp) Visit(v int32) bool {
	if s.marks[v] == s.epoch {
		return false
	}
	s.marks[v] = s.epoch
	return true
}

// Seen reports whether v has been visited in the current epoch.
func (s *Stamp) Seen(v int32) bool { return s.marks[v] == s.epoch }

// Len returns the id range the stamp currently covers.
func (s *Stamp) Len() int { return len(s.marks) }

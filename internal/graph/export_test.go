package graph

// RunLevelsTopDown is RunLevels with every level forced top-down.
func (s *MSBFSScratch) RunLevelsTopDown(g *Graph, sources []int32) {
	s.run(g, sources, msbfsTopDown)
}

// RunLevelsBottomUp is RunLevels with every level forced bottom-up.
func (s *MSBFSScratch) RunLevelsBottomUp(g *Graph, sources []int32) {
	s.run(g, sources, msbfsBottomUp)
}

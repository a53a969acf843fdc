package graph

// RunLevelsTopDown is RunLevels with every level forced top-down.
func (s *MSBFSScratch) RunLevelsTopDown(lg *LevelGraph, sources []int32) {
	s.run(lg, sources, msbfsTopDown)
}

// RunLevelsBottomUp is RunLevels with every level forced bottom-up.
func (s *MSBFSScratch) RunLevelsBottomUp(lg *LevelGraph, sources []int32) {
	s.run(lg, sources, msbfsBottomUp)
}

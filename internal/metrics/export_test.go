package metrics

import (
	"topocmp/internal/ball"
	"topocmp/internal/graph"
)

// SubgraphDistortionScalar is SubgraphDistortionKernels with the center
// election forced onto the per-source scalar Brandes accumulation.
func SubgraphDistortionScalar(sub *graph.Graph, roots int, k *ball.Kernels) float64 {
	return subgraphDistortion(sub, roots, brandesScalar, k)
}

// SubgraphDistortionBitParallel is SubgraphDistortionKernels with the
// center election forced onto the bit-parallel Brandes kernel.
func SubgraphDistortionBitParallel(sub *graph.Graph, roots int, k *ball.Kernels) float64 {
	return subgraphDistortion(sub, roots, brandesBitParallel, k)
}

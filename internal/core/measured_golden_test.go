package core

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"topocmp/internal/graph"
	"topocmp/internal/policy"
)

// measuredPrints fingerprints everything BuildMeasured produces: both truth
// graphs, the truth tiers and relationships, the router→AS map, the measured
// AS and RL graphs, the inferred relationships and the measured RL overlay.
type measuredPrints struct {
	TruthAS, TruthASRel, Tier, TruthRL, TruthASOf uint64
	AS, ASRel, RL, RLASOf                         uint64
}

func hashInt32s(xs []int32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint32(b[:], uint32(x))
		h.Write(b[:])
	}
	return h.Sum64()
}

// relPrint hashes the relationship of every arc, in CSR order.
func relPrint(a *policy.Annotated) uint64 {
	var rels []int32
	for u := int32(0); u < int32(a.G.NumNodes()); u++ {
		for _, v := range a.G.Neighbors(u) {
			rels = append(rels, int32(a.Rel(u, v)))
		}
	}
	return hashInt32s(rels)
}

func fingerprintMeasured(ms *MeasuredSet) measuredPrints {
	tier := make([]int32, len(ms.TruthAS.Tier))
	for i, t := range ms.TruthAS.Tier {
		tier[i] = int32(t)
	}
	fp := func(g *graph.Graph) uint64 { return g.Fingerprint() }
	return measuredPrints{
		TruthAS:    fp(ms.TruthAS.Graph),
		TruthASRel: relPrint(ms.TruthAS.Annotated),
		Tier:       hashInt32s(tier),
		TruthRL:    fp(ms.TruthRL.Graph),
		TruthASOf:  hashInt32s(ms.TruthRL.ASOf),
		AS:         fp(ms.AS.Graph),
		ASRel:      relPrint(ms.AS.Policy),
		RL:         fp(ms.RL.Graph),
		RLASOf:     hashInt32s(ms.RL.Overlay.ASOf),
	}
}

// TestBuildMeasuredGolden pins every output of the measurement pipeline —
// provider picks, vantage order, BGP extraction, Gao inference, the
// traceroute sweep's pseudo-node ids and alias splits — to the fingerprints
// the historical linear-scan, insertion-sort, full-path and map-backed
// implementations produced, at the paper's own sizes (scale 1.0 and the
// full-RL preset) and with alias failures. The pipeline runs on one
// goroutine, so the race detector has nothing to check here, and under it
// these builds would add about 0.75 GB to the package's peak RSS: race
// builds skip the test.
func TestBuildMeasuredGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential pipeline; tier 1 runs it without the race detector")
	}
	cases := []struct {
		seed  int64
		scale float64
		alias float64
		want  measuredPrints
	}{
		{1, 0.12, 0, measuredPrints{0xc514a6e16dd292d4, 0x3456f05f8f158d36, 0xf7afb4186405b96, 0x50e97c4a378981cb, 0xffea6f98c894d042, 0xcf14b645acd9a5f0, 0xec8d02674bf882f5, 0x17824afc2662ee73, 0xa1461b5198424195}},
		{2, 0.3, 0, measuredPrints{0xa6ad1482543df4af, 0x396ee838bc3a6e46, 0x9352d42ac514dcd5, 0x3b3a11aa2e63ef19, 0xcd2915eb2dc88015, 0x4d068da618893740, 0x2bfabdb3329bbe95, 0x8bd209133b3658b9, 0x5bb9857850718d5}},
		{3, 0.3, 0.2, measuredPrints{0x8e8cc44adff47c4, 0x6b9a804aac43beb5, 0x9352d42ac514dcd5, 0x645775ec07403105, 0x6b02a844f0a75fc3, 0x91685bd392a7f904, 0x6bcb8637d125ecd6, 0x28d06bb303f66904, 0x8ef52dcf4cae3e1d}},
		{7, 0.5, 0.5, measuredPrints{0x1c7a4f39d1382467, 0x15a490e156b0fb75, 0xbb185b95f9760876, 0x84e0988a9efc542f, 0xf7618b2fc1d976e9, 0x2dddd4bcb943a0e7, 0xb8566e67f59d2f65, 0x2a0eff661eea3749, 0xf22246d7e0d21589}},
		{1, 1.0, 0, measuredPrints{0xd697d3961f354580, 0x3a8fcc85927a8266, 0x2d9bc06c28d10774, 0x7e335f684dbbb105, 0xedb3c9a9d6b73f3c, 0x72be798a07b62228, 0x65fed1cc795bd186, 0x71745fe432ec7c9d, 0x9cdf8228cdfb6ae2}},
		{1, ScalePresets["full-rl"], 0, measuredPrints{0xde57eb231d3d5520, 0x2e4a749aacb1c606, 0xa95c302f0c4d05d4, 0x1643b09de6d018a1, 0x903ee5d33471114d, 0x4e82e00d3d67463, 0xabba842dc58d1e76, 0x30a1383e4f6b9e1f, 0x8d5c5e06126f79fb}},
	}
	for _, c := range cases {
		ms := BuildMeasured(PaperSetOptions{Seed: c.seed, Scale: c.scale, AliasFailure: c.alias})
		got := fingerprintMeasured(ms)
		if got != c.want {
			t.Errorf("seed %d scale %v alias %v: fingerprints\n got  %+v\n want %+v",
				c.seed, c.scale, c.alias, got, c.want)
		}
	}
}

package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"topocmp/internal/hierarchy"
)

// quickOpts keeps suite runs fast in tests.
func quickOpts() SuiteOptions {
	return SuiteOptions{
		Sources:     12,
		MaxBallSize: 1500,
		EigenRank:   15,
		LinkSources: 384,
		Seed:        1,
	}
}

func smallSet() PaperSetOptions { return PaperSetOptions{Seed: 1, Scale: 0.12} }

func TestCanonicalSignaturesMatchPaper(t *testing.T) {
	// The §3.2.1 calibration table: Mesh LHH, Random HHH, Tree HLL,
	// Complete HHL, Linear LLL.
	for _, n := range BuildCanonical(smallSet()) {
		res := RunSuite(n, quickOpts())
		row := BuildRow(res)
		if !row.MatchesPaper() {
			t.Errorf("%s: signature %s, paper says %s",
				n.Name, row.Signature, ExpectedSignatures[n.Name])
		}
	}
}

func TestGeneratedSignaturesMatchPaper(t *testing.T) {
	// §4.4: PLRG HHL, Tiers LHL, TS HLL, Waxman HHH.
	for _, n := range BuildGenerated(smallSet()) {
		res := RunSuite(n, quickOpts())
		row := BuildRow(res)
		if !row.MatchesPaper() {
			t.Errorf("%s: signature %s, paper says %s",
				n.Name, row.Signature, ExpectedSignatures[n.Name])
		}
	}
}

func TestMeasuredSignaturesMatchPaper(t *testing.T) {
	// The headline result: both measured graphs classify HHL, like the
	// complete graph and the PLRG.
	ms := BuildMeasured(smallSet())
	for _, n := range []*Network{ms.AS, ms.RL} {
		res := RunSuite(n, quickOpts())
		row := BuildRow(res)
		if !row.MatchesPaper() {
			t.Errorf("%s: signature %s, paper says %s",
				n.Name, row.Signature, ExpectedSignatures[n.Name])
		}
	}
}

func TestHierarchyGroupsMatchPaper(t *testing.T) {
	// §5.1: Tree/TS/Tiers strict, AS/RL/PLRG moderate, Mesh/Random/Waxman
	// loose.
	opts := quickOpts()
	nets := BuildPaperNetworks(smallSet())
	for _, n := range nets {
		if n.Name == "Complete" || n.Name == "Linear" {
			continue
		}
		res := RunSuite(n, opts)
		row := BuildRow(res)
		if !row.HierarchyMatchesPaper() {
			t.Errorf("%s: hierarchy %v, paper says %v",
				n.Name, row.Hierarchy, ExpectedHierarchy[n.Name])
		}
	}
}

func TestMeasuredGraphsResembleEachOther(t *testing.T) {
	// §4.4's first finding: the AS and RL graphs share the same signature.
	ms := BuildMeasured(smallSet())
	asRow := BuildRow(RunSuite(ms.AS, quickOpts()))
	rlRow := BuildRow(RunSuite(ms.RL, quickOpts()))
	if asRow.Signature != rlRow.Signature {
		t.Errorf("AS %s vs RL %s", asRow.Signature, rlRow.Signature)
	}
}

func TestWriteTable(t *testing.T) {
	rows := []Row{
		{Name: "Tree", Category: Canonical,
			Signature: Signature{High, Low, Low},
			Hierarchy: hierarchy.Strict, HasHierarchy: true},
		{Name: "AS", Category: Measured,
			Signature: Signature{High, High, Low}},
	}
	var buf bytes.Buffer
	if err := WriteTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Tree", "strict", "HLL", "AS", "HHL"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestDescribe(t *testing.T) {
	nets := BuildCanonical(smallSet())
	for _, n := range nets {
		d := n.Describe()
		if d.Nodes != n.Graph.NumNodes() || d.Name != n.Name {
			t.Fatalf("bad description %+v", d)
		}
	}
}

func TestSignatureString(t *testing.T) {
	s := Signature{High, High, Low}
	if s.String() != "HHL" {
		t.Fatalf("signature = %q", s.String())
	}
}

func TestPolicyVariantsPresent(t *testing.T) {
	ms := BuildMeasured(smallSet())
	res := RunSuite(ms.AS, quickOpts())
	if res.PolicyExpansion.Len() == 0 {
		t.Fatal("AS policy expansion missing")
	}
	if res.PolicyLinkValues == nil {
		t.Fatal("AS policy link values missing")
	}
	// Policy routing lengthens paths, so policy expansion at a mid radius
	// cannot exceed plain expansion.
	h := 3.0
	if res.PolicyExpansion.YAt(h) > res.Expansion.YAt(h)+1e-9 {
		t.Fatalf("policy expansion %v above plain %v at h=%v",
			res.PolicyExpansion.YAt(h), res.Expansion.YAt(h), h)
	}
	// §4.2: policy routing decreases resilience (its balls keep only
	// policy-compliant links) without changing the qualitative behaviour.
	if res.PolicyResilience.Len() < 2 {
		t.Fatal("policy resilience missing")
	}
	size := res.PolicyResilience.Points[res.PolicyResilience.Len()-1].X
	plain, pol := res.Resilience.YAt(size), res.PolicyResilience.YAt(size)
	if pol > plain*1.25 {
		t.Fatalf("policy resilience %v should not exceed plain %v at size %v",
			pol, plain, size)
	}
	if res.PolicyDistortion.Len() == 0 {
		t.Fatal("policy distortion missing")
	}
	if ClassifyDistortion(res.PolicyDistortion) != Low {
		t.Fatal("policy distortion should stay Low for the AS graph")
	}
}

func TestRLSignatureSurvivesAliasNoise(t *testing.T) {
	// Beyond the paper: the measured RL graph's HHL signature should be
	// robust to the alias-resolution failures real traceroute maps carry.
	opts := smallSet()
	opts.AliasFailure = 0.2
	ms := BuildMeasured(opts)
	res := RunSuite(ms.RL, quickOpts())
	row := BuildRow(res)
	if row.Signature.String() != "HHL" {
		t.Fatalf("noisy RL signature = %s, want HHL", row.Signature)
	}
}

func TestPaperSetOptionsValidate(t *testing.T) {
	for _, o := range []PaperSetOptions{
		{}, {Scale: 0.12}, {Scale: ScalePresets["1m"]}, {Scale: MaxScale},
		{AliasFailure: 0.3}, {AliasFailure: 1},
	} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: %v, want nil", o, err)
		}
	}
	for _, o := range []PaperSetOptions{
		{Scale: -1}, {Scale: MaxScale + 1}, {Scale: 1e6}, {Scale: math.NaN()}, {Scale: math.Inf(1)},
		{AliasFailure: -0.1}, {AliasFailure: 1.5}, {AliasFailure: math.NaN()},
	} {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v: nil, want an error", o)
		}
	}
}

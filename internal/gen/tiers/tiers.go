// Package tiers reimplements the Tiers structural topology generator
// (Doar, "A Better Model for Generating Test Networks", GLOBECOM 1996).
//
// Tiers builds a three-level hierarchy of WANs, MANs and LANs:
//
//   - One WAN of WANNodes nodes placed on a plane; the nodes are connected
//     by a Euclidean minimum spanning tree, then RW-1 extra intra-network
//     links are added in order of increasing inter-node distance.
//   - MANsPerWAN MANs, each of MANNodes nodes, built the same way with
//     RM-1 extra links, and homed onto the WAN with RMW links each.
//   - LANsPerMAN LANs per MAN. A LAN is a star: one gateway plus
//     LANNodes-1 hosts (Tiers counts the gateway in the per-LAN node
//     count). The gateway homes onto the MAN with RLM links.
//
// The parameter tuple mirrors the columns of the paper's Appendix C
// (number of WANs is fixed at 1, as in the Tiers implementation the paper
// used): intranetwork redundancy counts extra links added to a network
// beyond its spanning tree, internetwork redundancy counts the links tying
// a network to the tier above. With the paper's headline row (RW=RM=20,
// RMW=20, RLM=1) this lands on the reported 5000 nodes at average degree
// ~2.8 and reproduces the Tiers signature: mesh-like slow expansion, high
// resilience (each MAN is multiply homed), low distortion.
package tiers

import (
	"fmt"
	"math/rand"
	"sort"

	"topocmp/internal/geo"
	"topocmp/internal/graph"
)

// Params configures Tiers.
type Params struct {
	MANsPerWAN int // number of MANs attached to the WAN
	LANsPerMAN int // number of LANs attached to each MAN
	WANNodes   int // nodes in the WAN
	MANNodes   int // nodes per MAN
	LANNodes   int // nodes per LAN, including its gateway
	RW         int // intra-WAN redundancy: RW-1 extra links beyond the MST
	RM         int // intra-MAN redundancy: RM-1 extra links per MAN
	RL         int // intra-LAN redundancy (1 = star)
	RMW        int // MAN-to-WAN links per MAN
	RLM        int // LAN-to-MAN links per LAN
}

// Paper returns the headline Figure 1 parameterization: 5000 nodes
// (1 WAN ×500, 50 MANs ×40, 500 LANs ×5) at average degree ≈ 2.8.
func Paper() Params {
	return Params{
		MANsPerWAN: 50, LANsPerMAN: 10,
		WANNodes: 500, MANNodes: 40, LANNodes: 5,
		RW: 20, RM: 20, RL: 1, RMW: 20, RLM: 1,
	}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.WANNodes < 1 {
		return fmt.Errorf("tiers: WANNodes = %d < 1", p.WANNodes)
	}
	if p.MANsPerWAN < 0 || p.LANsPerMAN < 0 {
		return fmt.Errorf("tiers: negative network counts: %+v", p)
	}
	if p.MANsPerWAN > 0 && p.MANNodes < 1 {
		return fmt.Errorf("tiers: MANs requested but MANNodes = %d", p.MANNodes)
	}
	if p.LANsPerMAN > 0 && p.LANNodes < 1 {
		return fmt.Errorf("tiers: LANs requested but LANNodes = %d", p.LANNodes)
	}
	if p.RW < 1 || p.RM < 1 || p.RL < 1 || p.RMW < 1 || p.RLM < 1 {
		return fmt.Errorf("tiers: redundancy parameters must be >= 1: %+v", p)
	}
	return nil
}

// NumNodes returns the node count the parameters produce.
func (p Params) NumNodes() int {
	return p.WANNodes +
		p.MANsPerWAN*p.MANNodes +
		p.MANsPerWAN*p.LANsPerMAN*p.LANNodes
}

// Generate builds a Tiers topology. The graph is connected by construction:
// every tier is an MST plus redundancy and every lower tier homes onto the
// tier above.
func Generate(r *rand.Rand, p Params) (*graph.Graph, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	b := graph.NewStreamBuilder(p.NumNodes())
	next := 0
	alloc := func(k int) []int32 {
		ids := make([]int32, k)
		for i := range ids {
			ids[i] = int32(next)
			next++
		}
		return ids
	}

	// WAN tier.
	wanIDs := alloc(p.WANNodes)
	wanPts := geo.RandomPoints(r, p.WANNodes, 1000)
	meshTier(b, wanIDs, wanPts, p.RW)

	// MAN tier. Each MAN sits at a location on the WAN plane and, like
	// Tiers, homes onto its geographically nearest WAN nodes — locality is
	// what concentrates usage on the central WAN links (the strict
	// hierarchy of §5.1) while keeping balls mesh-like.
	manIDs := make([][]int32, p.MANsPerWAN)
	manPts := make([][]geo.Point, p.MANsPerWAN)
	for m := range manIDs {
		ids := alloc(p.MANNodes)
		pts := geo.RandomPoints(r, p.MANNodes, 100)
		meshTier(b, ids, pts, p.RM)
		manIDs[m] = ids
		manPts[m] = pts
		site := geo.Point{X: r.Float64() * 1000, Y: r.Float64() * 1000}
		for _, h := range nearestPoints(wanPts, site, p.RMW) {
			b.AddEdge(ids[r.Intn(len(ids))], wanIDs[h])
		}
	}

	// LAN tier: gateway + star hosts; the gateway homes onto the RLM
	// nearest MAN nodes from the LAN's site on the MAN plane.
	for m := range manIDs {
		for l := 0; l < p.LANsPerMAN; l++ {
			lan := alloc(p.LANNodes)
			gateway := lan[0]
			hosts := lan[1:]
			for _, h := range hosts {
				b.AddEdge(gateway, h)
			}
			// RL > 1 adds secondary hubs: extra star arms from other LAN
			// nodes, Tiers' LAN redundancy.
			for extra := 1; extra < p.RL && len(hosts) > 1; extra++ {
				hub := hosts[(extra-1)%len(hosts)]
				for _, h := range lan {
					if h != hub {
						b.AddEdge(hub, h)
					}
				}
			}
			site := geo.Point{X: r.Float64() * 100, Y: r.Float64() * 100}
			for _, h := range nearestPoints(manPts[m], site, p.RLM) {
				b.AddEdge(gateway, manIDs[m][h])
			}
		}
	}
	g := b.Graph()
	if !g.IsConnected() {
		return nil, fmt.Errorf("tiers: internal error: disconnected graph")
	}
	return g, nil
}

// MustGenerate is Generate but panics on error.
func MustGenerate(r *rand.Rand, p Params) *graph.Graph {
	g, err := Generate(r, p)
	if err != nil {
		panic(err)
	}
	return g
}

// meshTier connects ids with a Euclidean MST over pts, then adds
// redundancy-1 extra links in order of increasing inter-node distance,
// skipping pairs already linked and capping any node at a fair share of the
// extras so they spread across the network.
//
// Every edge among this tier's ids is added by this call (homing links
// always cross tiers), so the already-linked test is answered by a local
// seen-set over tier-local indices rather than the builder — which lets the
// whole generator stream into a graph.StreamBuilder.
func meshTier(b *graph.StreamBuilder, ids []int32, pts []geo.Point, redundancy int) {
	if len(ids) < 2 {
		return
	}
	localKey := func(u, v int) uint64 {
		if u > v {
			u, v = v, u
		}
		return uint64(u)<<32 | uint64(uint32(v))
	}
	seen := make(map[uint64]bool)
	for _, e := range geo.MST(pts) {
		b.AddEdge(ids[e.U], ids[e.V])
		seen[localKey(e.U, e.V)] = true
	}
	extra := redundancy - 1
	if extra <= 0 {
		return
	}
	perNode := 2 + 4*extra/len(ids)
	degree := make([]int, len(ids))
	for _, pr := range geo.PairsByDistance(pts) {
		if extra <= 0 {
			break
		}
		if degree[pr.U] >= perNode || degree[pr.V] >= perNode {
			continue
		}
		if seen[localKey(pr.U, pr.V)] {
			continue
		}
		seen[localKey(pr.U, pr.V)] = true
		b.AddEdge(ids[pr.U], ids[pr.V])
		degree[pr.U]++
		degree[pr.V]++
		extra--
	}
}

// nearestPoints returns the indices of the min(k, len(pts)) points closest
// to site, by selection over distances.
func nearestPoints(pts []geo.Point, site geo.Point, k int) []int {
	if k > len(pts) {
		k = len(pts)
	}
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return pts[idx[a]].Dist(site) < pts[idx[b]].Dist(site)
	})
	return idx[:k]
}

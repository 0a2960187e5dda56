package gpu

import (
	"dcl1sim/internal/cache"
	"dcl1sim/internal/mem"
	"dcl1sim/internal/noc"
)

// Mesh wiring for the MeshBase extension design: the baseline machine
// (private per-core L1s) with its monolithic crossbar replaced by a 2D mesh.
// Cores occupy the first grid nodes in row-major order; L2 slices occupy the
// remaining nodes, so reply traffic crosses the die like request traffic.

// meshShape picks a near-square grid holding cores + L2 slices.
func meshShape(nodes int) (w, h int) {
	w = 1
	for w*w < nodes {
		w++
	}
	h = (nodes + w - 1) / w
	return w, h
}

// MeshReq and MeshRep are exposed for tests via the System fields below.
type meshNets struct {
	req *noc.Mesh
	rep *noc.Mesh
}

func (s *System) wireMeshNoC() {
	cfg := s.Cfg
	total := cfg.Cores + cfg.L2Slices
	w, h := meshShape(total)
	mk := func(name string) *noc.Mesh {
		return noc.NewMesh(noc.MeshParams{
			Name: s.cname(name), W: w, H: h, LinkBytes: s.D.FlitBytes,
		})
	}
	req := mk("mesh-req")
	rep := mk("mesh-rep")
	s.MeshReq, s.MeshRep = req, rep
	s.Noc2Clk.Register(req)
	s.Noc2Clk.Register(rep)
	req.AttachPorts(s.Noc2Clk)
	rep.AttachPorts(s.Noc2Clk)

	l2Node := func(slice int) int { return cfg.Cores + slice }

	for c := 0; c < cfg.Cores; c++ {
		c := c
		nd := s.Nodes[c]
		s.Noc2Clk.Register(pump(nd.Q3, pumpRate, func(a *mem.Access) bool {
			return s.inject(req, a, c, l2Node(s.AMap.L2Slice(a.Line)), reqFlits(a, s.D.FlitBytes, true))
		}))
		rep.SetEndpoint(c, s.sink(nd.Q4))
		nd.Q4.Attach(s.Noc2Clk)
	}
	for i := 0; i < cfg.L2Slices; i++ {
		req.SetEndpoint(l2Node(i), s.sink(s.l2in[i]))
	}
	s.wireL2Replies(func(a *mem.Access, slice int) bool {
		dst := a.Core
		if a.Core == cache.PrefetchCore {
			dst = a.Node
		}
		return s.inject(rep, a, l2Node(slice), dst, replyFlits(a, s.D.FlitBytes, false, false))
	})
}

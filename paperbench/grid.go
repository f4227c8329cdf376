package main

import (
	"fmt"
	"strconv"

	"hetarch/internal/codetelep"
	"hetarch/internal/distill"
	"hetarch/internal/mc"
	"hetarch/internal/qec"
	"hetarch/internal/splitmix"
	"hetarch/internal/surface"
	"hetarch/internal/uec"
)

// kind names the public entry point a sweep point is driven through.
type kind int

const (
	kindSurface kind = iota // surface.New + Experiment.RunContext, one basis
	kindUEC                 // uec.New + Experiment.RunContext, one basis
	kindPseudo              // uec.PseudothresholdContext
	kindDistill             // distill.NewModule(cfg).Run(horizon)
	kindCT                  // codetelep.EvaluateContext
)

// point is one generated sweep point: the parameters, the shot budget and
// the Monte Carlo seed the program receives. Nothing else about the
// benchmark seed reaches the program.
type point struct {
	Label string
	Kind  kind
	Seed  int64
	Shots int

	Surface surface.Params
	UEC     uec.Params
	Distill distill.Config
	Horizon float64 // µs, distill points
	CT      codetelep.Params
}

// scale sets the per-point effort of the three workloads. The benchmark
// runs defaultScale; the self-test runs a smaller one with the same grids.
type scale struct {
	SurfaceShots int     // shots per surface point and basis
	UECShots     int     // shots per Fig. 9 / Table 3 point and basis
	PTShots      int     // shots per pseudothreshold grid point and basis
	CTShots      int     // codetelep.Params.Shots per Table 4 point
	Horizon      float64 // µs of simulated time per Fig. 4 point
	MaxDistance  int     // largest surface-code distance
}

var defaultScale = scale{
	SurfaceShots: 300,
	UECShots:     130000,
	PTShots:      65000,
	CTShots:      2000,
	Horizon:      5000,
	MaxDistance:  13,
}

// workload is one named benchmark input set. Work reads the program's
// always-on counter of the workload's unit of work: Monte Carlo shots on
// the stabilizer sweeps, sched events on the distillation sweep.
type workload struct {
	Name string
	Grid func(seed int64, sc scale) []point
	Work func() int64
}

var workloads = []workload{
	{"surface-sweep", surfaceGrid, mcShots},
	{"uec-sweep", uecGrid, mcShots},
	{"ct-distill", ctGrid, schedEvents.Value},
}

func mcShots() int64 { return surfaceShots.Value() + uecShots.Value() }

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// gridGen hands out per-point seeds and shot budgets. Shots come in
// complementary pairs (base+δ, base−δ) over two points of equal cost, so
// the total work of the pair stays fixed and run time stays steady across
// seeds. Bases are not multiples of the 64-shot batch or the 256-shot
// shard, so the seed still moves the pair's batch and shard counts.
type gridGen struct {
	seed int64
	rng  *splitmix.RNG
	pts  []point
}

func newGridGen(seed int64) *gridGen {
	return &gridGen{seed: seed, rng: splitmix.New(seed)}
}

// add appends p with the next point seed.
func (g *gridGen) add(p point) {
	p.Seed = mc.StreamSeed(g.seed, uint64(len(g.pts)))
	g.pts = append(g.pts, p)
}

// split returns a pair of shot budgets summing to 2·base, each within
// base/2 of it.
func (g *gridGen) split(base int) (int, int) {
	d := g.rng.Intn(base) - base/2
	return base + d, base - d
}

// jitter returns base moved by up to base/8 either way.
func (g *gridGen) jitter(base int) int {
	return base + g.rng.Intn(base/4+1) - base/8
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// surfaceGrid is the Fig. 6 grid (d = MaxDistance, six α, T_CD and T_CA
// columns) and the Fig. 7 grid (d = 5…MaxDistance, five T_CD/T_CA ratios),
// each point in both bases.
func surfaceGrid(seed int64, sc scale) []point {
	g := newGridGen(seed)
	both := func(label string, p surface.Params) {
		nz, nx := g.split(sc.SurfaceShots)
		for _, b := range []struct {
			basis byte
			shots int
		}{{'Z', nz}, {'X', nx}} {
			pp := p
			pp.Basis = b.basis
			g.add(point{Label: label + "/" + string(b.basis), Kind: kindSurface, Shots: b.shots, Surface: pp})
		}
	}
	d := sc.MaxDistance
	for _, a := range []float64{1, 2, 3, 5, 7, 10} {
		pd := surface.DefaultParams(d)
		pd.TcdMicros = 100 * a
		both("fig6/alpha="+ftoa(a)+"/Tcd", pd)
		pa := surface.DefaultParams(d)
		pa.TcaMicros = 100 * a
		both("fig6/alpha="+ftoa(a)+"/Tca", pa)
	}
	for dist := 5; dist <= sc.MaxDistance; dist += 2 {
		for _, r := range []float64{1, 2, 3, 5, 8} {
			p := surface.DefaultParams(dist)
			p.TcdMicros = 100 * r
			both("fig7/d="+strconv.Itoa(dist)+"/ratio="+ftoa(r), p)
		}
	}
	return g.pts
}

// evalCode is one code of the Section 4.2.2 evaluation.
type evalCode struct {
	Name   string
	Code   *qec.Code
	Native bool // lattice-native for the homogeneous baseline
}

// evaluationCodes are the five codes of Fig. 9 and Tables 3 and 4, in the
// order the experiment runners use.
func evaluationCodes() []evalCode {
	sc3, _ := qec.Surface(3)
	sc4, _ := qec.Surface(4)
	return []evalCode{
		{"Reed-Muller", qec.ReedMuller15(), false},
		{"TriColor-d5", qec.TriColor5(), false},
		{"Steane", qec.Steane(), false},
		{"Surface-d3", sc3, true},
		{"Surface-d4", sc4, true},
	}
}

// uecGrid is the Fig. 9 grid (5 codes × 6 storage lifetimes, heterogeneous)
// and the Table 3 grid (heterogeneous and homogeneous at Ts = 50 ms, plus
// the pseudothreshold fit for the non-lattice-native codes), both bases.
func uecGrid(seed int64, sc scale) []point {
	g := newGridGen(seed)
	both := func(label string, c evalCode, ts float64, het, native bool) {
		nz, nx := g.split(sc.UECShots)
		for _, b := range []struct {
			basis byte
			shots int
		}{{'Z', nz}, {'X', nx}} {
			p := uec.DefaultParams(c.Code, ts, het)
			p.Basis = b.basis
			p.NativePlacement = native
			g.add(point{Label: label + "/" + string(b.basis), Kind: kindUEC, Shots: b.shots, UEC: p})
		}
	}
	codes := evaluationCodes()
	for _, c := range codes {
		for _, ts := range []float64{1, 2.5, 5, 10, 25, 50} {
			both("fig9/"+c.Name+"/Ts="+ftoa(ts), c, ts, true, false)
		}
	}
	for _, c := range codes {
		both("table3/"+c.Name+"/het", c, 50, true, false)
		both("table3/"+c.Name+"/hom", c, 50, false, c.Native)
		if !c.Native {
			g.add(point{Label: "table3/" + c.Name + "/PT", Kind: kindPseudo,
				Shots: g.jitter(sc.PTShots), UEC: uec.DefaultParams(c.Code, 50, true)})
		}
	}
	return g.pts
}

// ctGrid is the Fig. 4 distillation sweep (five generation rates × six
// storage lifetimes plus the homogeneous baseline) and the Table 4 code
// teleportation grid (10 code pairs × heterogeneous/homogeneous).
func ctGrid(seed int64, sc scale) []point {
	g := newGridGen(seed)
	for _, rate := range []float64{100, 300, 1000, 3000, 10000} {
		add := func(label string, cfg distill.Config) {
			cfg.GenRateKHz = rate
			cfg.ConsumeAtThreshold = true
			g.add(point{Label: "fig4/" + ftoa(rate) + "kHz/" + label, Kind: kindDistill, Distill: cfg, Horizon: sc.Horizon})
		}
		for _, ts := range []float64{0.5, 1, 2.5, 5, 12.5, 50} {
			add("Ts="+ftoa(ts)+"ms", distill.DefaultConfig(ts, true))
		}
		add("hom", distill.DefaultConfig(0.5, false))
	}
	codes := evaluationCodes()
	for i := range codes {
		for j := i + 1; j < len(codes); j++ {
			nhet, nhom := g.split(sc.CTShots)
			for _, v := range []struct {
				name  string
				het   bool
				shots int
			}{{"het", true, nhet}, {"hom", false, nhom}} {
				p := codetelep.DefaultParams(codes[i].Code, codes[j].Code, 50, v.het)
				p.NativeA, p.NativeB = codes[i].Native, codes[j].Native
				p.Shots = v.shots
				p.Workers = 1
				g.add(point{Label: "table4/" + codes[i].Name + "&" + codes[j].Name + "/" + v.name, Kind: kindCT, Shots: v.shots, CT: p})
			}
		}
	}
	// Seeds are assigned by add; copy them into the configs that carry
	// their own seed field.
	for i := range g.pts {
		p := &g.pts[i]
		switch p.Kind {
		case kindDistill:
			p.Distill.Seed = p.Seed
		case kindCT:
			p.CT.Seed = p.Seed
		}
	}
	return g.pts
}

package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"hetarch/internal/experiments"
	"hetarch/internal/obs/stats"
)

// Reference seeds: the default seed and one held out from tuning. Their
// per-point and table digests are committed in reference.json; any other
// seed is checked against invariants only.
const (
	defaultSeed = 1
	heldOutSeed = 20231028
)

//go:embed reference.json
var referenceJSON []byte

// reference holds committed digests: seed → workload → digests.
type reference map[string]map[string]refDigests

type refDigests struct {
	Points map[string]string `json:"points"`
	Table  string            `json:"table"`
}

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// pointDigest hashes a point's label and complete outcome, floats by bits.
func pointDigest(p point, o outcome) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s|%d|%d|%d|%x", p.Label, p.Shots, o.Shots, o.Errors, math.Float64bits(o.Value))
	if o.CI != nil {
		fmt.Fprintf(&b, "|%x|%x", math.Float64bits(o.CI.Lo), math.Float64bits(o.CI.Hi))
	}
	for _, v := range o.Extra {
		fmt.Fprintf(&b, "|%d", v)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}

// renderTable renders the pass as the program's own table type, one row
// per point: requested shots, logical errors and the reported value with
// its 95% interval.
func renderTable(name string, seed int64, pts []point, outs []outcome) []byte {
	t := &experiments.Table{
		Title:   name + " (seed " + strconv.FormatInt(seed, 10) + ")",
		Columns: []string{"shots", "errors", "value"},
	}
	for i, p := range pts {
		t.Rows = append(t.Rows, experiments.Row{
			Label:  p.Label,
			Values: []float64{float64(outs[i].Shots), float64(outs[i].Errors), outs[i].Value},
			CIs:    []*stats.Interval{nil, nil, outs[i].CI},
		})
	}
	var b bytes.Buffer
	t.Fprint(&b)
	return b.Bytes()
}

func tableDigest(table []byte) string {
	sum := sha256.Sum256(table)
	return hex.EncodeToString(sum[:8])
}

// invariant checks what must hold for a point at any seed: exact shot
// counts, finite rates within [0, ½], and each estimate inside its Wilson
// interval.
func invariant(p point, o outcome) error {
	if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
		return fmt.Errorf("value %v is not finite", o.Value)
	}
	if o.Errors < 0 || o.Errors > o.Shots {
		return fmt.Errorf("%d errors in %d shots", o.Errors, o.Shots)
	}
	if o.CI != nil && (o.Value < o.CI.Lo || o.Value > o.CI.Hi) {
		return fmt.Errorf("estimate %v outside its interval [%v, %v]", o.Value, o.CI.Lo, o.CI.Hi)
	}
	switch p.Kind {
	case kindSurface, kindUEC:
		if o.Shots != int64(p.Shots) {
			return fmt.Errorf("ran %d shots, requested %d", o.Shots, p.Shots)
		}
		if o.CI == nil {
			return fmt.Errorf("no interval")
		}
		return rateRange(o.Value)
	case kindPseudo:
		if len(o.Extra) != 1 || (o.Extra[0] == 0) != (o.Value == 0) {
			return fmt.Errorf("fit flag %v disagrees with pseudothreshold %v", o.Extra, o.Value)
		}
		return rateRange(o.Value)
	case kindDistill:
		gen, stored, dropped, att, succ, deliv := o.Extra[0], o.Extra[1], o.Extra[2], o.Extra[3], o.Extra[4], o.Extra[5]
		if o.Value < 0 || gen == 0 || stored > gen || stored+dropped < gen || succ > att || deliv > gen {
			return fmt.Errorf("inconsistent module stats %v", o.Extra)
		}
	case kindCT:
		failed := o.Extra[0] == 1
		want := int64(4 * p.Shots)
		if failed {
			want = 0
		}
		if o.Shots != want {
			return fmt.Errorf("UEC sub-modules ran %d shots, requested %d", o.Shots, want)
		}
		if failed != (o.CI == nil) {
			return fmt.Errorf("interval presence disagrees with distillation outcome")
		}
		return rateRange(o.Value)
	}
	return nil
}

func rateRange(v float64) error {
	if v < 0 || v > 0.5 {
		return fmt.Errorf("rate %v outside [0, 0.5]", v)
	}
	return nil
}

// checker checks the passes of one workload at one seed.
type checker struct {
	name string
	seed int64
	ref  *refDigests // nil when the seed has no committed digests
}

func newChecker(name string, seed int64, ref reference) *checker {
	c := &checker{name: name, seed: seed}
	if d, ok := ref[strconv.FormatInt(seed, 10)][name]; ok {
		c.ref = &d
	}
	return c
}

// check returns the number of checked items (every point, plus the
// rendered table at a reference seed) and the failures among them, each
// with a reason.
func (c *checker) check(pts []point, outs []outcome) (attempted int, failures []string) {
	for i, p := range pts {
		if err := invariant(p, outs[i]); err != nil {
			failures = append(failures, p.Label+": "+err.Error())
			continue
		}
		if c.ref != nil {
			if want, got := c.ref.Points[p.Label], pointDigest(p, outs[i]); want != got {
				failures = append(failures, fmt.Sprintf("%s: digest %s, reference %q", p.Label, got, want))
			}
		}
	}
	if c.ref != nil {
		if got := tableDigest(renderTable(c.name, c.seed, pts, outs)); got != c.ref.Table {
			failures = append(failures, fmt.Sprintf("table: digest %s, reference %q", got, c.ref.Table))
		}
	}
	attempted = len(pts)
	if c.ref != nil {
		attempted++
	}
	return attempted, failures
}

// digests computes the committed form of a pass.
func digests(name string, seed int64, pts []point, outs []outcome) refDigests {
	d := refDigests{Points: map[string]string{}, Table: tableDigest(renderTable(name, seed, pts, outs))}
	for i, p := range pts {
		d.Points[p.Label] = pointDigest(p, outs[i])
	}
	return d
}

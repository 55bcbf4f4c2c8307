// Package checkin synthesizes geo-social check-in data standing in for
// the Brightkite and Gowalla SNAP datasets the paper's Figure 11 uses.
//
// Substitution note (DESIGN.md §4): the real datasets are 4.5 M and
// 6.4 M check-ins of (user, timestamp, latitude, longitude). Their
// property that drives SGB and clustering cost is spatial skew: users
// check in around a power-law-sized set of urban hot-spots. This
// generator reproduces exactly that — hot-spot centers drawn worldwide,
// hot-spot popularity ∝ 1/rank (Zipf), Gaussian scatter around each
// center — with deterministic seeding.
package checkin

import (
	"math/rand"

	"github.com/sgb-db/sgb/internal/geom"
	"github.com/sgb-db/sgb/internal/storage"
	"github.com/sgb-db/sgb/internal/types"
)

// Config controls the generator.
type Config struct {
	// Checkins is the number of rows/points to generate.
	Checkins int
	// Users is the number of distinct user ids (default Checkins/50).
	Users int
	// Hotspots is the number of urban centers (default 200).
	Hotspots int
	// Spread is the Gaussian sigma around a hot-spot in degrees
	// (default 0.05 ≈ 5 km).
	Spread float64
	// Seed makes runs reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Users <= 0 {
		c.Users = c.Checkins/50 + 1
	}
	if c.Hotspots <= 0 {
		c.Hotspots = 200
	}
	if c.Spread <= 0 {
		c.Spread = 0.05
	}
	return c
}

// Brightkite returns the configuration approximating the Brightkite
// dataset's skew (fewer, denser hot-spots), scaled to n check-ins.
// The spread matches a greater-metropolitan extent (~0.5° ≈ 50 km):
// check-ins cluster by region but one ε = 0.2 similarity ball covers a
// neighborhood, not a whole city — the regime the paper's Figure 11
// operates in (its FORM-NEW-GROUP recursion stays shallow there; see
// EXPERIMENTS.md for what happens on denser data).
func Brightkite(n int) Config {
	// Venue count scales with the data (the real dataset has ~6
	// check-ins per venue), keeping per-ε-ball density roughly flat as
	// n grows — as it is in the real data.
	return Config{Checkins: n, Hotspots: max(60, n/25), Spread: 0.5, Seed: 7}
}

// Gowalla returns the configuration approximating Gowalla (more
// hot-spots, wider scatter), scaled to n check-ins.
func Gowalla(n int) Config {
	return Config{Checkins: n, Hotspots: max(80, n/20), Spread: 0.8, Seed: 11}
}

// Points generates just the (latitude, longitude) points — the form the
// operator-level benchmarks consume.
func Points(cfg Config) []geom.Point {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	centers := make([]geom.Point, cfg.Hotspots)
	for i := range centers {
		centers[i] = geom.Point{
			r.Float64()*130 - 60,  // latitude in [-60, 70]
			r.Float64()*360 - 180, // longitude in [-180, 180]
		}
	}
	// Zipf popularity over hot-spots. The exponent is mild: the head
	// city gets a few× the median's traffic, not a constant fraction of
	// the whole feed (matching venue popularity in the SNAP data).
	zipf := rand.NewZipf(r, 1.05, 4, uint64(cfg.Hotspots-1))
	pts := make([]geom.Point, cfg.Checkins)
	for i := range pts {
		c := centers[int(zipf.Uint64())]
		pts[i] = geom.Point{
			c[0] + r.NormFloat64()*cfg.Spread,
			c[1] + r.NormFloat64()*cfg.Spread,
		}
	}
	return pts
}

// Table generates a check-in relation with schema
// (user_id INT, latitude FLOAT, longitude FLOAT, checkin_date DATE),
// named name — loadable into the SQL engine for Query 1–3 style
// workloads.
func Table(name string, cfg Config) *storage.Table {
	cfg = cfg.withDefaults()
	pts := Points(cfg)
	r := rand.New(rand.NewSource(cfg.Seed + 1))
	t := storage.NewTable(name, storage.Schema{
		{Name: "user_id", Type: types.KindInt},
		{Name: "latitude", Type: types.KindFloat},
		{Name: "longitude", Type: types.KindFloat},
		{Name: "checkin_date", Type: types.KindDate},
	})
	start := types.DaysFromCivil(2008, 4, 1) // Brightkite's collection start
	for _, p := range pts {
		t.MustInsert(types.Row{
			types.Int(int64(1 + r.Intn(cfg.Users))),
			types.Float(p[0]),
			types.Float(p[1]),
			types.Date(start + int64(r.Intn(900))),
		})
	}
	return t
}

package main

import (
	"math"
	"net/netip"
	"testing"
)

var (
	london    = latLon{51.51, -0.13}
	amsterdam = latLon{52.37, 4.90}
	sanJose   = latLon{37.34, -121.89}
	sydney    = latLon{-33.87, 151.21}
)

// The expected distances are worked by hand: LON–AMS is about
// 0.86° of latitude (95.6 km) by 5.03° of longitude at cos 52° (344.5
// km), 357.5 km on the plane, which the sphere lengthens slightly to
// 357.74 km; antipodes are half a great circle, π × 6371 km.
func TestGreatCircle(t *testing.T) {
	for _, c := range []struct {
		name string
		a, b latLon
		km   float64
		tol  float64
	}{
		{"LON-AMS", london, amsterdam, 357.74, 0.01},
		{"same point", london, london, 0, 1e-9},
		{"equatorial antipodes", latLon{0, 0}, latLon{0, 180}, 20015.087, 0.001},
		{"polar antipodes", latLon{90, 0}, latLon{-90, 0}, 20015.087, 0.001},
		{"oblique antipodes", latLon{45, 10}, latLon{-45, -170}, 20015.087, 0.001},
		{"quarter circle", latLon{0, 0}, latLon{0, 90}, 10007.543, 0.001},
	} {
		if got := greatCircleKm(c.a, c.b); math.Abs(got-c.km) > c.tol {
			t.Errorf("%s: %.4f km, want %.4f", c.name, got, c.km)
		}
		if got := greatCircleKm(c.b, c.a); math.Abs(got-c.km) > c.tol {
			t.Errorf("%s reversed: %.4f km, want %.4f", c.name, got, c.km)
		}
	}
}

// The curve runs linearly from 2000 at 0 km to 1000 at 20038 km and
// truncates. LON–AMS: 1000 + (20038-357.74)/20038×1000 = 1982.15.
// Antipodes on a 6371 km sphere are 20015.09 km, 22.9 km short of the
// curve's span, so the farthest point on earth still scores 1001.
func TestLocalPrefCurve(t *testing.T) {
	for _, c := range []struct {
		km float64
		lp uint32
	}{
		{0, 2000},
		{-5, 2000},
		{curveSpanKm, 1000},
		{curveSpanKm + 500, 1000},
		{curveSpanKm / 2, 1500},
		{357.74, 1982},
		{20015.087, 1001},
		{20.038, 1999},
		{20.039, 1998},
	} {
		if got := localPref(c.km); got != c.lp {
			t.Errorf("localPref(%v) = %d, want %d", c.km, got, c.lp)
		}
		if !localPrefMatches(c.lp, c.km) {
			t.Errorf("localPrefMatches(%d, %v) = false", c.lp, c.km)
		}
	}
	if localPrefMatches(1983, 357.74) || localPrefMatches(1981, 357.74) {
		t.Error("a neighbouring LOCAL_PREF matched away from an integer boundary")
	}
}

func TestNearestUsable(t *testing.T) {
	const lon, ams, sjs, syd = 10, 9, 4, 8
	cands := []candidatePoP{{sjs, sanJose}, {lon, london}, {ams, amsterdam}, {syd, sydney}}
	all := func(int) bool { return true }
	without := func(ids ...int) func(int) bool {
		return func(p int) bool {
			for _, id := range ids {
				if p == id {
					return false
				}
			}
			return true
		}
	}
	paris := latLon{48.86, 2.35} // 344 km from LON, 430 km from AMS
	for _, c := range []struct {
		name    string
		dst     latLon
		located bool
		usable  func(int) bool
		pop     int
		v       verdict
	}{
		{"nearest wins", paris, true, all, lon, wantRoute},
		{"next nearest when the nearest is unusable", paris, true, without(lon), ams, wantRoute},
		{"far side of the world", latLon{-37.81, 144.96}, true, all, syd, wantRoute},
		{"no usable candidate", paris, true, without(lon, ams, sjs, syd), 0, wantNoRoute},
		{"no geolocation", paris, false, all, 0, skipNoGeo},
		// Equidistant from LON and AMS: both score the same LOCAL_PREF.
		{"near-tie", latLon{51.94, 2.385}, true, all, 0, skipTie},
	} {
		pop, v := nearestUsable(c.dst, c.located, cands, c.usable)
		if pop != c.pop || v != c.v {
			t.Errorf("%s: got PoP %d verdict %d, want PoP %d verdict %d", c.name, pop, v, c.pop, c.v)
		}
	}
	// Two candidates at one PoP are one choice, not a tie.
	twice := []candidatePoP{{lon, london}, {lon, london}, {sjs, sanJose}}
	if pop, v := nearestUsable(paris, true, twice, all); pop != lon || v != wantRoute {
		t.Errorf("duplicate PoP: got %d/%d", pop, v)
	}
}

func TestPrefixSetLongest(t *testing.T) {
	s := prefixSet{
		netip.MustParsePrefix("10.0.0.0/8"):  1,
		netip.MustParsePrefix("10.1.0.0/16"): 2,
		netip.MustParsePrefix("10.1.2.0/24"): 3,
	}
	for _, c := range []struct {
		addr string
		want int
		ok   bool
	}{
		{"10.1.2.3", 3, true},
		{"10.1.3.1", 2, true},
		{"10.200.0.1", 1, true},
		{"11.0.0.1", 0, false},
	} {
		_, got, ok := s.longest(netip.MustParseAddr(c.addr), 32)
		if got != c.want || ok != c.ok {
			t.Errorf("longest(%s) = %d,%v, want %d,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
}

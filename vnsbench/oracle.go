package main

import (
	"math"
	"net/netip"
)

// The oracle is the benchmark's own model of what the program must
// output. It shares no code with the program: the great-circle
// distance, the LOCAL_PREF curve and the nearest-usable-PoP rule are
// written out again here from the paper's definition, so a regression
// in the program's versions shows up as failed operations.

// Spherical-earth constants: the mean radius the program models
// distances with, and the half circumference its LOCAL_PREF curve is
// scaled to (20038 km is π times the equatorial radius).
const (
	earthRadiusKm = 6371.0
	curveSpanKm   = 20038.0
)

// latLon is a position in degrees.
type latLon struct{ lat, lon float64 }

// greatCircleKm is the haversine distance between a and b.
func greatCircleKm(a, b latLon) float64 {
	rad := math.Pi / 180
	φ1, φ2 := a.lat*rad, b.lat*rad
	dφ := φ2 - φ1
	dλ := (b.lon - a.lon) * rad
	h := math.Pow(math.Sin(dφ/2), 2) + math.Cos(φ1)*math.Cos(φ2)*math.Pow(math.Sin(dλ/2), 2)
	h = math.Min(1, math.Max(0, h))
	return 2 * earthRadiusKm * math.Asin(math.Sqrt(h))
}

// curvePoint is the unrounded LOCAL_PREF for a distance: 2000 at 0 km,
// falling linearly to 1000 at curveSpanKm and clamped outside.
func curvePoint(km float64) float64 {
	km = math.Min(curveSpanKm, math.Max(0, km))
	return 1000 + (curveSpanKm-km)/curveSpanKm*1000
}

// localPref is the integer LOCAL_PREF the curve assigns (truncated).
func localPref(km float64) uint32 { return uint32(math.Floor(curvePoint(km))) }

// localPrefMatches reports whether lp is the curve's value at km. A
// point within 1e-6 of an integer may truncate either way under a
// differently ordered float computation, so both neighbours pass there.
func localPrefMatches(lp uint32, km float64) bool {
	x := curvePoint(km)
	return lp == uint32(math.Floor(x+1e-6)) || lp == uint32(math.Floor(x-1e-6))
}

// candidatePoP is one PoP offering a route for a prefix.
type candidatePoP struct {
	id  int
	pos latLon
}

// verdict is the oracle's answer for one prefix at one vantage.
type verdict uint8

const (
	wantRoute   verdict = iota // the FIB must send the prefix to pop
	wantNoRoute                // no usable candidate: the FIB must hold no route
	skipTie                    // the two best PoPs are within one LOCAL_PREF step
	skipNoGeo                  // no geolocation: LOCAL_PREF plays no part
)

// nearestUsable picks the candidate PoP with the highest LOCAL_PREF (the
// nearest by great circle) among those usable says may carry traffic.
// It returns skipTie when the runner-up PoP's LOCAL_PREF is within one
// step of the winner's, because the decision process then falls
// through to tie-breakers the oracle does not model.
func nearestUsable(dst latLon, located bool, cands []candidatePoP, usable func(pop int) bool) (int, verdict) {
	best, second := -1, -1.0
	bestLP := -1.0
	for _, c := range cands {
		if !usable(c.id) {
			continue
		}
		lp := curvePoint(greatCircleKm(c.pos, dst))
		switch {
		case best == c.id:
			bestLP = math.Max(bestLP, lp)
		case lp > bestLP:
			if best != -1 {
				second = math.Max(second, bestLP)
			}
			best, bestLP = c.id, lp
		default:
			second = math.Max(second, lp)
		}
	}
	switch {
	case best == -1:
		return 0, wantNoRoute
	case !located:
		return 0, skipNoGeo
	case second >= 0 && math.Floor(bestLP)-math.Floor(second) <= 1:
		return 0, skipTie
	}
	return best, wantRoute
}

// prefixSet answers longest-prefix-match questions over a fixed set of
// IPv4 prefixes by probing every shorter mask of the address: no trie,
// so it cannot share a bug with the program's.
type prefixSet map[netip.Prefix]int

// longest returns the value of the longest prefix in s that contains
// addr, probing masks from maxBits down to 0.
func (s prefixSet) longest(addr netip.Addr, maxBits int) (netip.Prefix, int, bool) {
	for bits := maxBits; bits >= 0; bits-- {
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if v, ok := s[p]; ok {
			return p, v, true
		}
	}
	return netip.Prefix{}, 0, false
}

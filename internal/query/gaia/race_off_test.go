//go:build !race

package gaia

const raceEnabled = false

//go:build !race

package hiactor

const raceEnabled = false

//go:build !race

package models

const raceEnabled = false

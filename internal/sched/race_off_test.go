//go:build !race

package sched

const driverSchedules = 2000

//go:build race

package sched

// driverSchedules is how many seeded schedules the Driver property test
// runs: the race detector slows the loop ~10×, and its job there is the
// interleavings, not the coverage.
const driverSchedules = 200

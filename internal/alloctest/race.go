//go:build race

package alloctest

const RaceEnabled = true // see norace.go

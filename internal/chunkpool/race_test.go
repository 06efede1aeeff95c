//go:build race

package chunkpool

func init() { raceEnabled = true }

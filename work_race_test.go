//go:build race

package expelliarmus

func init() { raceEnabled = true }

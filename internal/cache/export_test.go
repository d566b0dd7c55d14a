package cache

// The fixtures the external cache_test package shares with this one.
var FixtureEngine = fixtureEngine

const (
	HitPathAdvice  = hitPathAdvice
	Example1Advice = example1Advice
)

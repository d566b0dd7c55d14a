// Package core composes the three BrAID components of Figure 3 — inference
// engine, Cache Management System, and remote DBMS — into a runnable system,
// and provides the comparator configurations (loose coupling, exact-match
// caching, single-relation caching) used by the experiment suite.
package core

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bridge"
	"repro/internal/cache"
	"repro/internal/ie"
	"repro/internal/logic"
	"repro/internal/remotedb"
)

// Comparator selects the data-layer configuration between the IE and the
// remote DBMS (the approaches of Figure 1 that share our query interface).
type Comparator string

// Comparator values.
const (
	// ComparatorBrAID is the full Cache Management System.
	ComparatorBrAID Comparator = "braid"
	// ComparatorLoose is loose coupling: no cache, every query remote.
	ComparatorLoose Comparator = "loose"
	// ComparatorExact is BERMUDA-style exact-match result caching.
	ComparatorExact Comparator = "exact"
	// ComparatorSingleRel is CERI86-style whole-relation caching.
	ComparatorSingleRel Comparator = "singlerel"
)

// Config assembles a system.
type Config struct {
	// Comparator picks the data layer (default ComparatorBrAID).
	Comparator Comparator
	// IE configures the inference engine (strategy, advice, shaping).
	IE ie.Options
	// CMS configures the BrAID cache (ignored by the other comparators
	// except CacheBytes and Costs).
	CMS cache.Options
}

// DefaultConfig is the full BrAID system with the interpreted strategy.
func DefaultConfig() Config {
	return Config{
		Comparator: ComparatorBrAID,
		IE:         ie.DefaultOptions(),
		CMS: cache.Options{
			Features: cache.AllFeatures(),
			Costs:    remotedb.DefaultCosts(),
		},
	}
}

// System is a wired BrAID instance: one knowledge base, one data layer, one
// remote client.
type System struct {
	KB     *logic.KB
	Engine *ie.Engine
	DS     bridge.DataSource
	Client remotedb.Client
	Config Config
}

// NewSystem wires a system over an existing remote client.
func NewSystem(kb *logic.KB, client remotedb.Client, cfg Config) (*System, error) {
	if cfg.Comparator == "" {
		cfg.Comparator = ComparatorBrAID
	}
	if cfg.CMS.Costs == (remotedb.Costs{}) {
		cfg.CMS.Costs = remotedb.DefaultCosts()
	}
	var ds bridge.DataSource
	switch cfg.Comparator {
	case ComparatorBrAID:
		ds = cache.New(client, cfg.CMS)
	case ComparatorLoose:
		ds = baseline.NewLooseCoupling(client, cfg.CMS.Costs)
	case ComparatorExact:
		ds = baseline.NewExactMatchCache(client, cfg.CMS.CacheBytes, cfg.CMS.Costs)
	case ComparatorSingleRel:
		ds = baseline.NewSingleRelationCache(client, cfg.CMS.CacheBytes, cfg.CMS.Costs)
	default:
		return nil, fmt.Errorf("core: unknown comparator %q", cfg.Comparator)
	}
	return &System{
		KB:     kb,
		Engine: ie.New(kb, ds, cfg.IE),
		DS:     ds,
		Client: client,
		Config: cfg,
	}, nil
}

// Ask runs an AI query through the inference engine.
func (s *System) Ask(goal logic.Atom) (*ie.Solutions, error) { return s.Engine.Ask(goal) }

// AskText parses and runs an AI query.
func (s *System) AskText(src string) (*ie.Solutions, error) { return s.Engine.AskText(src) }

// Stats returns the data layer's cumulative counters.
func (s *System) Stats() bridge.SourceStats { return s.DS.Stats() }

// CMS returns the cache when the comparator is BrAID-like, else nil.
func (s *System) CMS() *cache.CMS {
	if c, ok := s.DS.(*cache.CMS); ok {
		return c
	}
	if sr, ok := s.DS.(*baseline.SingleRelationCache); ok {
		return sr.CMS()
	}
	return nil
}

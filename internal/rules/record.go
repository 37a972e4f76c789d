package rules

import (
	"fmt"
	"sync"

	"dime/internal/entity"
	"dime/internal/ontology"
	"dime/internal/tokenize"
)

// TokenMode selects how an attribute's value list is turned into tokens for
// set-based similarity.
type TokenMode int

const (
	// Elements treats each list element (normalized) as one token — right
	// for genuinely multi-valued attributes such as Authors or Also_viewed,
	// where overlap must count common elements, not common words.
	Elements TokenMode = iota
	// WordsMode splits every element into lower-cased word tokens — right
	// for free-text attributes such as Title or Description.
	WordsMode
)

// NodeMapper maps an attribute's value list to an ontology node. The default
// mapper looks the joined value (then each element) up in the tree; topic
// models install mappers that infer a node from content.
type NodeMapper func(values []string) *ontology.Node

// Config describes how entities of a schema are compiled into Records:
// per-attribute token modes, ontology trees, and custom node mappers.
type Config struct {
	// Schema is the relation the rules and records are defined over.
	Schema *entity.Schema
	// Trees maps attribute name → ontology tree for ontology predicates.
	Trees map[string]*ontology.Tree
	// TokenModes overrides the default Elements mode per attribute name.
	TokenModes map[string]TokenMode
	// Mappers overrides the default lookup-based node mapping per attribute
	// name. A mapper is only consulted for attributes that also have a Tree.
	Mappers map[string]NodeMapper

	// mu guards lazy compilation: configs are built single-threaded (the
	// With* setters are not concurrency-safe) but are then shared across
	// goroutines by batch discovery, whose first record compilations can
	// race to compile.
	mu        sync.Mutex
	compiled  bool
	treeAt    []*ontology.Tree
	modeAt    []TokenMode
	mapperAt  []NodeMapper
	attrCount int
}

// NewConfig returns a Config over the schema with all-default settings.
func NewConfig(schema *entity.Schema) *Config {
	return &Config{Schema: schema}
}

// WithTree registers an ontology tree for an attribute and returns the
// config for chaining.
func (c *Config) WithTree(attr string, t *ontology.Tree) *Config {
	if c.Trees == nil {
		c.Trees = make(map[string]*ontology.Tree)
	}
	c.Trees[attr] = t
	c.compiled = false
	return c
}

// WithTokenMode sets the token mode for an attribute and returns the config.
func (c *Config) WithTokenMode(attr string, m TokenMode) *Config {
	if c.TokenModes == nil {
		c.TokenModes = make(map[string]TokenMode)
	}
	c.TokenModes[attr] = m
	c.compiled = false
	return c
}

// WithMapper sets a custom node mapper for an attribute and returns the
// config.
func (c *Config) WithMapper(attr string, m NodeMapper) *Config {
	if c.Mappers == nil {
		c.Mappers = make(map[string]NodeMapper)
	}
	c.Mappers[attr] = m
	c.compiled = false
	return c
}

// Tree returns the ontology tree registered for the named attribute, if any.
func (c *Config) Tree(attr string) *ontology.Tree {
	return c.Trees[attr]
}

func (c *Config) compile() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.compiled {
		return nil
	}
	if c.Schema == nil {
		return fmt.Errorf("rules: config has no schema")
	}
	n := c.Schema.Len()
	c.treeAt = make([]*ontology.Tree, n)
	c.modeAt = make([]TokenMode, n)
	c.mapperAt = make([]NodeMapper, n)
	for name, t := range c.Trees {
		i, ok := c.Schema.Index(name)
		if !ok {
			return fmt.Errorf("rules: tree registered for unknown attribute %q", name)
		}
		c.treeAt[i] = t
	}
	for name, m := range c.TokenModes {
		i, ok := c.Schema.Index(name)
		if !ok {
			return fmt.Errorf("rules: token mode for unknown attribute %q", name)
		}
		c.modeAt[i] = m
	}
	for name, m := range c.Mappers {
		i, ok := c.Schema.Index(name)
		if !ok {
			return fmt.Errorf("rules: mapper for unknown attribute %q", name)
		}
		c.mapperAt[i] = m
	}
	c.attrCount = n
	c.compiled = true
	return nil
}

// Record is the precomputed per-entity view predicates evaluate against.
type Record struct {
	// Entity is the underlying entity.
	Entity *entity.Entity
	// Index is the entity's position within its group (set by callers that
	// build record slices; -1 when unknown).
	Index int
	// Tokens[i] holds the tokens of attribute i, duplicate-free by
	// construction (NewRecord and NewRecords deduplicate in both token
	// modes). Set predicates rely on it: they scan for common tokens once
	// and take len(Tokens[i]) as the set size.
	Tokens [][]string
	// Joined[i] holds the attribute's values joined by single spaces, the
	// view character-based similarity uses.
	Joined []string
	// Nodes[i] is the ontology node attribute i maps to (nil when the
	// attribute has no tree or the value has no node).
	Nodes []*ontology.Node
}

// NewRecord compiles an entity into a Record under the config.
func (c *Config) NewRecord(e *entity.Entity) (*Record, error) {
	if err := c.compile(); err != nil {
		return nil, err
	}
	r := &Record{
		Entity: e,
		Index:  -1,
		Tokens: make([][]string, c.attrCount),
		Joined: make([]string, c.attrCount),
		Nodes:  make([]*ontology.Node, c.attrCount),
	}
	if err := c.fillRecord(r, e); err != nil {
		return nil, err
	}
	return r, nil
}

// fillRecord compiles e into r, whose Tokens/Joined/Nodes slices are already
// sized to the schema's attribute count.
func (c *Config) fillRecord(r *Record, e *entity.Entity) error {
	if len(e.Values) != c.attrCount {
		return fmt.Errorf("rules: entity %q has %d attributes, schema has %d",
			e.ID, len(e.Values), c.attrCount)
	}
	for i, values := range e.Values {
		r.Joined[i] = e.Joined(i)
		switch c.modeAt[i] {
		case WordsMode:
			r.Tokens[i] = tokenize.Set(r.Joined[i])
		default:
			tokens := make([]string, 0, len(values))
			for _, v := range values {
				tokens = append(tokens, ontology.Normalize(v))
			}
			r.Tokens[i] = tokenize.Dedup(tokens)
		}
		if tree := c.treeAt[i]; tree != nil {
			if mapper := c.mapperAt[i]; mapper != nil {
				r.Nodes[i] = mapper(values)
			} else {
				r.Nodes[i] = defaultMap(tree, values, r.Joined[i])
			}
		}
	}
	return nil
}

// NewRecords compiles a whole group, setting Index on every record. The
// record structs and their per-attribute slice headers come from three
// group-wide arenas, so compiling n records costs O(1) container allocations
// instead of O(n·attrs).
func (c *Config) NewRecords(g *entity.Group) ([]*Record, error) {
	if !c.Schema.Equal(g.Schema) {
		return nil, fmt.Errorf("rules: group %q schema does not match config schema", g.Name)
	}
	if err := c.compile(); err != nil {
		return nil, err
	}
	n := len(g.Entities)
	na := c.attrCount
	recs := make([]*Record, n)
	backing := make([]Record, n)
	tokens := make([][]string, n*na)
	joined := make([]string, n*na)
	nodes := make([]*ontology.Node, n*na)
	for i, e := range g.Entities {
		r := &backing[i]
		r.Entity = e
		r.Index = i
		r.Tokens = tokens[i*na : (i+1)*na : (i+1)*na]
		r.Joined = joined[i*na : (i+1)*na : (i+1)*na]
		r.Nodes = nodes[i*na : (i+1)*na : (i+1)*na]
		if err := c.fillRecord(r, e); err != nil {
			return nil, err
		}
		recs[i] = r
	}
	return recs, nil
}

// defaultMap looks the joined value, then each element, up in the tree.
func defaultMap(tree *ontology.Tree, values []string, joined string) *ontology.Node {
	if n := tree.Lookup(joined); n != nil {
		return n
	}
	for _, v := range values {
		if n := tree.Lookup(v); n != nil {
			return n
		}
	}
	return nil
}

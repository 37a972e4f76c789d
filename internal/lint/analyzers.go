package lint

// All returns the full analyzer suite in a stable order: the syntactic
// checks first, then the interprocedural ones that walk the module call
// graph.
func All() []Analyzer {
	return []Analyzer{
		FloatCmp{},
		ErrCheck{},
		DeterSafe{},
		PanicProp{},
		LockOrder{},
		HeldCall{},
		GoLeak{},
		CtxFlow{},
	}
}

package bench

// figures lists every experiment in paper order.
var figures = []struct {
	name string
	run  func(Config) []Figure
}{
	{"fig2", func(Config) []Figure { return []Figure{Fig2()} }},
	{"fig5", Fig5}, {"fig6", Fig6}, {"fig7", Fig7}, {"fig8", Fig8},
	{"fig9", Fig9}, {"fig10", Fig10}, {"fig11", Fig11}, {"fig12", Fig12},
}

// All runs every figure runner in paper order.
func All(c Config) []Figure {
	var figs []Figure
	for _, f := range figures {
		figs = append(figs, f.run(c)...)
	}
	return figs
}

// Runners maps experiment names, and "all", to their runner functions,
// for the cmd/experiments dispatcher.
var Runners = func() map[string]func(Config) []Figure {
	m := map[string]func(Config) []Figure{"all": All}
	for _, f := range figures {
		m[f.name] = f.run
	}
	return m
}()

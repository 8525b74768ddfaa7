package adl

// DSLSeeds are small ADL sources, one per top-level construct plus common
// malformations. They seed FuzzParseDSL and the model store's check that
// its publish hash equals Hash, so both run over the same corpus.
var DSLSeeds = []string{
	"",
	"service c cpu {\n speed 1e9\n rate 1e-10\n}",
	"service s composite(n) {\n state w and nosharing {\n  call c(n)\n }\n transition Start -> w prob 1\n transition w -> End prob 1\n}",
	"assembly a {\n bind s.c -> c\n}",
	"service x constant {\n pfail 0.5\n}",
	"service broken",
	"service s composite() {",
	"transition Start -> End prob 1",
	"# only a comment",
	"service s cpu {\n speed -1\n rate nan\n}",
}

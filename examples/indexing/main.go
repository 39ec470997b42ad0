// indexing demonstrates the execution index tree on the paper's Fig. 4
// examples and the §III.B context-sensitivity example: the same
// dependence lands on different constructs depending on which dynamic
// boundaries it crosses — information a context-sensitive profiler
// cannot recover.
//
// Run with: go run ./examples/indexing
package main

import (
	"context"
	"fmt"
	"log"

	"alchemist"
)

// The §III.B example: four dependences between A() and B() share one
// calling context but cross different construct boundaries.
const src = `// contexts.mc (paper section III.B)
int withinJ;
int acrossJ;
int acrossI;
int acrossF;

void A(int i, int j) {
	withinJ = 1;
	if (j == 0) { acrossJ = 1; }
	if (i == 0 && j == 0) {
		acrossI = 1;
		acrossF = acrossF + 1;
	}
}

void B(int i, int j) {
	int t = withinJ;
	if (j == 1) { t = acrossJ; }
	if (i == 1 && j == 0) { t = acrossI; }
	if (i == 0 && j == 0) { t = acrossF; }
	out(t);
}

void F() {
	for (int i = 0; i < 2; i++) {
		for (int j = 0; j < 2; j++) {
			A(i, j);
			B(i, j);
		}
	}
}

int main() {
	F();
	F();
	return 0;
}
`

func main() {
	ctx := context.Background()
	eng := alchemist.NewEngine()
	prog, err := eng.Compile(ctx, "contexts.mc", src)
	if err != nil {
		log.Fatal(err)
	}
	profile, _, err := eng.Profile(ctx, prog, alchemist.ProfileConfig{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Four dependences, one calling context, four different construct attributions:")
	fmt.Println()
	show := func(title string, c *alchemist.ConstructStat) {
		if c == nil {
			fmt.Printf("%s: <not profiled>\n", title)
			return
		}
		fmt.Printf("%-34s (line %d, %d instances)\n", title, c.Pos.Line, c.Instances)
		for _, e := range c.Edges {
			if e.Type != alchemist.RAW {
				continue
			}
			fmt.Printf("    RAW line %2d -> line %2d  Tdep=%d\n", e.HeadPos.Line, e.TailPos.Line, e.MinDist)
		}
	}

	// The inner j loop: carries only the dependence that crosses
	// iteration boundaries of j but not i.
	var loops []*alchemist.ConstructStat
	for _, c := range profile.Constructs {
		if c.Kind == alchemist.KindLoop && c.FuncName == "F" {
			loops = append(loops, c)
		}
	}
	if len(loops) != 2 {
		log.Fatalf("expected 2 loops in F, got %d", len(loops))
	}
	outer, inner := loops[0], loops[1]
	if outer.Pos.Line > inner.Pos.Line {
		outer, inner = inner, outer
	}

	show("Method A (within one j iteration)", profile.ConstructForFunc("A"))
	fmt.Println()
	show("j loop (crosses j, not i)", inner)
	fmt.Println()
	show("i loop (crosses i, within F)", outer)
	fmt.Println()
	show("Method F (crosses calls to F)", profile.ConstructForFunc("F"))

	fmt.Println()
	fmt.Println("Reading the edges: withinJ appears only on A; acrossJ first appears on the")
	fmt.Println("j loop; acrossI on the i loop; acrossF only on F itself. A context-sensitive")
	fmt.Println("profile keyed on call stacks would merge all four (paper section III.B).")
}

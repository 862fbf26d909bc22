// The benchmark is a module of its own so that building it never touches
// the root build file; the path sits under xcql/ so it may import the
// program's internal packages, and the replace points at the checkout.
module xcql/bench

go 1.24

require xcql v0.0.0

replace xcql => ../

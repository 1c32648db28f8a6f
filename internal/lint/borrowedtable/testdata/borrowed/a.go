package a

// table stands in for an engine holding adopted snapshot tables.
type table struct {
	maps  []int16
	nextC []int32
}

var published []int16

// reads is the well-behaved borrower: reads, aliases to locals, and
// builtin length queries are all fine.
//
//sfa:borrowed maps
func reads(maps []int16) int16 {
	x := maps[0]
	alias := maps
	n := int16(len(alias))
	for _, v := range maps {
		x += v
	}
	return x + n
}

//sfa:borrowed maps
func mutates(maps []int16, v int16) {
	maps[0] = v          // want `write through borrowed parameter maps`
	_ = append(maps, v)  // want `append to borrowed parameter maps`
	copy(maps, maps[1:]) // want `copy into borrowed parameter maps`
}

//sfa:borrowed maps
func retains(t *table, maps []int16) {
	t.maps = maps    // want `borrowed parameter maps stored into a field`
	published = maps // want `borrowed parameter maps stored in package variable published`
}

//sfa:borrowed maps
func returns(maps []int16) []int16 {
	return maps // want `borrowed parameter maps returned`
}

//sfa:borrowed maps
func intoLit(maps []int16) *table {
	return &table{maps: maps} // want `borrowed parameter maps stored in a composite literal`
}

//sfa:borrowed maps
func sends(ch chan []int16, maps []int16) {
	ch <- maps // want `borrowed parameter maps sent on a channel`
}

//sfa:borrowed maps
func window(maps []int16) *int16 {
	return &maps[0] // want `address taken into borrowed parameter maps`
}

// adopt is the blessed hand-off: the codec's decoded tables become the
// assembled structure's own, exactly once, at construction.
//
//sfa:borrowed maps nextC
//sfa:adopts
func adopt(maps []int16, nextC []int32) *table {
	return &table{maps: maps, nextC: nextC}
}

// adoptStillNoMutation: adoption transfers ownership but the tables
// were built elsewhere; writing them is still flagged.
//
//sfa:borrowed maps
//sfa:adopts
func adoptStillNoMutation(t *table, maps []int16) {
	t.maps = maps
	maps[0] = 0 // want `write through borrowed parameter maps`
}

//sfa:borrowed maps
func leaks(maps []int16) int {
	use(maps)     // want `borrowed parameter maps passed to use`
	use(maps[1:]) // want `borrowed parameter maps passed to use`
	return sum(maps) + len(maps)
}

func use(v []int16) { v[0] = 1 }

// sum declares its parameter borrowed, so borrowed values may flow in.
//
//sfa:borrowed v
func sum(v []int16) int {
	n := 0
	for _, x := range v {
		n += int(x)
	}
	return n
}

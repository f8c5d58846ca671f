package rtlive

// MaxFree is maxFree, for tests of how many idle workers a burst leaves.
const MaxFree = maxFree

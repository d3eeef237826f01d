package tensor

// EachTier is eachTier for the external tests of this directory, which drive
// nn and the engines — packages that import this one — under both tiers.
var EachTier = eachTier

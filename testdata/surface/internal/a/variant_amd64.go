package a

// Variant has one declaration per build; the command reaches both.
func Variant() int { return 1 }

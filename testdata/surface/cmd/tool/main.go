package main

import "fixture/internal/a"

func main() {
	_ = a.Make()
	_ = a.Holder{}
	_ = a.ModeB
	_ = a.Variant()
}

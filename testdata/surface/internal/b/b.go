// Package b exports nothing; its test reaches into package a.
package b

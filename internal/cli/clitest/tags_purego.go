//go:build purego

package clitest

const buildTags = "purego"

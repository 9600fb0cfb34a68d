// Command reachmod is the reachability guard's self-test input: every
// function but dead is reached, each through a different route.
package main

import (
	"flag"
	"fmt"
	"strconv"
)

// shape's area is called only through the interface.
type shape interface{ area() int }

type square struct{ side int }

func (s square) area() int { return s.side * s.side }

// level is a flag.Value: the flag package calls Set and String.
type level int

func (l *level) Set(s string) error {
	n, err := strconv.Atoi(s)
	*l = level(n)
	return err
}

func (l *level) String() string { return strconv.Itoa(int(*l)) }

type stack[T any] struct{ items []T }

func (s *stack[T]) push(v T) { s.items = append(s.items, v) }

// counter.bump is stored as a method value in a struct field.
type counter struct{ n int }

func (c *counter) bump() { c.n++ }

type hooks struct{ onEvent func() }

var registry = map[string]func() int{}

func register(name string, f func() int) { registry[name] = f }

func answer() int { return 42 }

func init() { register("answer", answer) }

// buildVersion is called by a package-level var initializer only.
var version = buildVersion()

func buildVersion() string { return "v1" }

func dead() {}

func main() {
	var lvl level
	flag.Var(&lvl, "level", "verbosity")
	flag.Parse()
	var sh shape = square{side: 3}
	s := &stack[int]{}
	s.push(sh.area())
	c := &counter{}
	h := hooks{onEvent: c.bump}
	h.onEvent()
	fmt.Println(version, lvl, s.items, c.n, registry["answer"]())
}

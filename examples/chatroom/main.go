// Chatroom: the actor runtime hosting a chat service — a room actor
// broadcasting to member actors, with an ask-pattern query at the end.
// This is the message-passing substrate behind akka-uct and reactors.
package main

import (
	"fmt"
	"sort"
	"sync"

	"renaissance/internal/actors"
)

type join struct{ member *actors.Ref }
type post struct {
	from string
	text string
}
type transcriptQuery struct{}

func main() {
	sys := actors.NewSystem(0)
	defer sys.Shutdown()

	// The room broadcasts posts to every member and keeps a transcript.
	var members []*actors.Ref
	var transcript []string
	room := sys.Spawn("room", actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
		switch m := msg.(type) {
		case join:
			members = append(members, m.member)
		case post:
			transcript = append(transcript, m.from+": "+m.text)
			for _, member := range members {
				ctx.Send(member, m) // worker-local fast path
			}
		case transcriptQuery:
			ctx.Reply(append([]string(nil), transcript...))
		}
	}))

	// Members count what they receive.
	var mu sync.Mutex
	received := map[string]int{}
	for _, name := range []string{"ada", "grace", "barbara"} {
		name := name
		member := sys.Spawn(name, actors.ReceiverFunc(func(ctx *actors.Context, msg any) {
			mu.Lock()
			received[name]++
			mu.Unlock()
		}))
		room.Tell(join{member})
	}
	sys.AwaitQuiescence()

	for i := 0; i < 5; i++ {
		room.Tell(post{from: "ada", text: fmt.Sprintf("message %d", i)})
	}
	sys.AwaitQuiescence()

	// Ask the room for the transcript.
	reply := <-room.Ask(transcriptQuery{})
	fmt.Println("transcript:")
	for _, line := range reply.([]string) {
		fmt.Println("  " + line)
	}
	fmt.Println("deliveries per member:")
	mu.Lock()
	var names []string
	for n := range received {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-8s %d\n", n, received[n])
	}
	mu.Unlock()
}

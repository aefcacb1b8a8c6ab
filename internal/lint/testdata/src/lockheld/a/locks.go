// Fixture type-checked under example.com/internal/coord, matching the
// lockheld analyzer's scope.
package coord

import (
	"bufio"
	"io"
	"net"
	"sync"
)

type state struct {
	mu sync.Mutex
	ch chan int
	w  io.Writer
	br *bufio.Reader
}

func sendHeld(s *state) {
	s.mu.Lock()
	s.ch <- 1 // want "channel send while holding s.mu"
	s.mu.Unlock()
}

func recvHeldDefer(s *state) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return <-s.ch // want "channel receive while holding s.mu"
}

func writeHeld(s *state, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, err := s.w.Write(buf) // want "s.w.Write while holding s.mu"
	return err
}

func sendReleased(s *state) {
	s.mu.Lock()
	s.mu.Unlock()
	s.ch <- 1
}

func unlockThenSend(s *state, fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
		s.ch <- 1
		return
	}
	s.mu.Unlock()
	s.ch <- 1
}

func selectHeld(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select without default while holding s.mu"
	case v := <-s.ch:
		_ = v
	}
}

func selectNonBlocking(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.ch <- 1:
	default:
	}
}

func spawnWhileHeld(s *state) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		<-s.ch // new goroutine: holds nothing
	}()
}

func condWait(s *state, c *sync.Cond) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Wait() // Cond.Wait releases the lock while blocking
}

func dialHeld(s *state, addr string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = net.Dial("tcp", addr) // want "net.Dial while holding s.mu"
}

func readHeldAllowed(s *state) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//ppalint:allow lockheld frame writes are serialised by this lock by design
	return s.br.ReadSlice('\n')
}

type rwstate struct {
	mu sync.RWMutex
	ch chan int
}

func rlockHeld(r *rwstate) {
	r.mu.RLock()
	r.ch <- 1 // want "channel send while holding r.mu"
	r.mu.RUnlock()
}

// A send moved after the unlock needs no suppression.
func staleAllow(s *state) {
	s.mu.Lock()
	s.mu.Unlock()
	//ppalint:allow lockheld the send used to sit under the lock // want "ppalint:allow lockheld suppresses nothing on this line"
	s.ch <- 1
}

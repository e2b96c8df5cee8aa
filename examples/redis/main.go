// Redis example: start an in-process mini-Redis server backed by the Cuckoo
// Trie, and talk to it over loopback TCP with the RESP client — the paper's
// full-system setting (§6.8) in miniature.
package main

import (
	"fmt"
	"log"

	cuckootrie "repro"
	"repro/internal/index"
	"repro/internal/miniredis"
)

func main() {
	srv := miniredis.NewServerExec(func(c int) index.Index {
		return cuckootrie.New(cuckootrie.Config{CapacityHint: c, AutoResize: true})
	}, 1024, miniredis.ExecSerial)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			log.Printf("close: %v", err)
		}
	}()
	fmt.Println("server on", addr)

	cl, err := miniredis.Dial(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	for _, user := range []string{"carol", "alice", "dave", "bob"} {
		if _, err := cl.Do([]byte("ZADD"), []byte("users"), []byte(user), []byte("1")); err != nil {
			log.Fatal(err)
		}
	}
	score, _ := cl.Do([]byte("ZSCORE"), []byte("users"), []byte("alice"))
	fmt.Printf("ZSCORE alice = %s\n", score)

	// Re-adding an existing member updates its score and replies 0.
	reply, _ := cl.Do([]byte("ZADD"), []byte("users"), []byte("alice"), []byte("2"))
	fmt.Println("ZADD alice again =", reply)

	// Batched scores in one round trip (served by one MultiGet).
	scores, _ := cl.Do([]byte("ZMSCORE"), []byte("users"),
		[]byte("bob"), []byte("mallory"), []byte("carol"))
	fmt.Println("ZMSCORE bob mallory carol:")
	for _, s := range scores.([]interface{}) {
		if b, _ := s.([]byte); b != nil {
			fmt.Printf("  %s\n", b)
		} else {
			fmt.Println("  (nil)")
		}
	}

	members, _ := cl.Do([]byte("ZRANGEBYLEX"), []byte("users"), []byte("b"), []byte("10"))
	fmt.Println("ZRANGEBYLEX from \"b\":")
	for _, m := range members.([]interface{}) {
		fmt.Printf("  %s\n", m)
	}
	size, _ := cl.Do([]byte("DBSIZE"))
	fmt.Println("DBSIZE =", size)
}

package server

import "net/http"

// WriteErrForTest exposes the error→status mapping to the external test
// package.
func WriteErrForTest(w http.ResponseWriter, err error) { writeErr(w, err) }

// RoutePatternsForTest lists the route table's patterns.
func (s *Server) RoutePatternsForTest() []string {
	var out []string
	for _, rt := range s.routes() {
		out = append(out, rt.pattern)
	}
	return out
}

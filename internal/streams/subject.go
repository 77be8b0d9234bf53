package streams

import "strings"

// Subject hierarchy: stream tags may be dot-separated subjects
// ("darshan.nid00040.posix") and subscriptions may filter with wildcards,
// following the NATS subject grammar the LDMS community converged on for
// production stream fabrics:
//
//   - a literal token matches only itself,
//   - "*" matches exactly one token ("darshan.*.posix" matches
//     "darshan.nid00040.posix" but not "darshan.posix" or
//     "darshan.a.b.posix"),
//   - a trailing ">" matches one or more remaining tokens ("darshan.>"
//     matches every subject under the darshan hierarchy, but not
//     "darshan" itself).
//
// A plain tag with no dots is a one-token subject, so exact-tag
// publish/subscribe (the paper's semantics, and every existing caller)
// is unchanged: "darshanConnector" matches only "darshanConnector".

// subjectSep separates subject tokens.
const subjectSep = "."

// Wildcard tokens.
const (
	// TokenWildcard matches exactly one subject token.
	TokenWildcard = "*"
	// TailWildcard, as the final filter token, matches one or more
	// remaining subject tokens.
	TailWildcard = ">"
)

// HasWildcard reports whether filter contains any wildcard token (a
// filter without one is an exact subject).
func HasWildcard(filter string) bool {
	for _, tok := range strings.Split(filter, subjectSep) {
		if tok == TokenWildcard || tok == TailWildcard {
			return true
		}
	}
	return false
}

// ValidFilter reports whether filter is a well-formed subject filter:
// non-empty tokens, with ">" only in the final position. "*" is a valid
// token anywhere. The empty string is not a valid filter.
func ValidFilter(filter string) bool {
	if filter == "" {
		return false
	}
	toks := strings.Split(filter, subjectSep)
	for i, tok := range toks {
		if tok == "" {
			return false
		}
		if tok == TailWildcard && i != len(toks)-1 {
			return false
		}
	}
	return true
}

// MatchSubject reports whether subject matches filter. Literal tokens
// match themselves, "*" matches exactly one token, and a trailing ">"
// matches one or more remaining tokens. A malformed filter (see
// ValidFilter) matches nothing; a filter with no wildcards degenerates to
// string equality, so exact-tag rendezvous is byte-for-byte unchanged.
func MatchSubject(filter, subject string) bool {
	if !strings.ContainsAny(filter, "*>") {
		return filter == subject && filter != ""
	}
	if filter == TailWildcard { // every stream's default: no need to tokenize
		return subject != ""
	}
	if !ValidFilter(filter) || subject == "" {
		return false
	}
	f := strings.Split(filter, subjectSep)
	s := strings.Split(subject, subjectSep)
	for i, tok := range f {
		switch tok {
		case TailWildcard:
			// ">" must consume at least one token.
			return len(s) > i
		case TokenWildcard:
			if i >= len(s) || s[i] == "" {
				return false
			}
		default:
			if i >= len(s) || s[i] != tok {
				return false
			}
		}
	}
	return len(s) == len(f)
}

// MatchAny reports whether subject matches at least one of the filters.
func MatchAny(filters []string, subject string) bool {
	for _, f := range filters {
		if MatchSubject(f, subject) {
			return true
		}
	}
	return false
}

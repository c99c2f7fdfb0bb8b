// Package relay implements the TA-side relay module of the paper's design
// (§II, §IV.5): "a TLS endpoint which implements an API, e.g., Amazon Alexa
// voice service, used to communicate with the cloud service provider."
//
// The channel is an X25519 + AES-256-GCM authenticated-encryption session
// (the stdlib primitives under TLS 1.3), established end to end between
// the TA and the cloud. The untrusted tee-supplicant only ever carries
// sealed frames — that is the property that keeps the normal world out of
// the loop even though it provides the network service.
package relay

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/sensitive"
)

// Errors returned by the package.
var (
	// ErrBadFrame is returned for undecryptable or malformed frames.
	ErrBadFrame = errors.New("relay: bad frame")
	// ErrReplay is returned when a frame's sequence number regresses.
	ErrReplay = errors.New("relay: replayed frame")
	// ErrBadPolicy is returned for unknown filtering policies.
	ErrBadPolicy = errors.New("relay: unknown policy")
)

// Identity is one endpoint's X25519 key pair.
type Identity struct {
	priv *ecdh.PrivateKey
}

// NewIdentity generates a key pair from the given entropy source. It
// reads exactly 32 bytes, so equal seeded readers give equal keys; the
// standard library's GenerateKey skips a byte of the stream at random.
func NewIdentity(rand io.Reader) (*Identity, error) {
	var key [32]byte
	if _, err := io.ReadFull(rand, key[:]); err != nil {
		return nil, fmt.Errorf("relay identity: %w", err)
	}
	priv, err := ecdh.X25519().NewPrivateKey(key[:])
	if err != nil {
		return nil, fmt.Errorf("relay identity: %w", err)
	}
	return &Identity{priv: priv}, nil
}

// PublicKey returns the endpoint's public key bytes.
func (i *Identity) PublicKey() []byte { return i.priv.PublicKey().Bytes() }

// Channel is one directional pair of AEAD states derived from an ECDH
// handshake. The client (TA) seals with the client-to-server key; the
// server (cloud) seals with the server-to-client key.
//
// Each direction keeps its GCM nonce (four zero bytes and the frame's
// big-endian sequence number) in the channel, under that direction's
// lock, so sealing and opening allocate nothing beyond the frame or
// plaintext they return.
type Channel struct {
	send cipher.AEAD
	recv cipher.AEAD

	sendMu    sync.Mutex
	sendSeq   uint64
	sendNonce [12]byte

	recvMu    sync.Mutex
	recvSeen  uint64
	recvNonce [12]byte
}

// frameOverhead is what a frame adds to its plaintext: the 8-byte
// sequence number and the 16-byte GCM tag.
const frameOverhead = 8 + 16

// NewChannel derives a channel from the local identity and the peer's
// public key. Both sides compute identical traffic keys; isClient selects
// which direction this endpoint seals.
func NewChannel(local *Identity, remotePub []byte, isClient bool) (*Channel, error) {
	pub, err := ecdh.X25519().NewPublicKey(remotePub)
	if err != nil {
		return nil, fmt.Errorf("relay peer key: %w", err)
	}
	shared, err := local.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("relay ecdh: %w", err)
	}
	c2s := deriveAEAD(shared, "client-to-server")
	s2c := deriveAEAD(shared, "server-to-client")
	ch := &Channel{}
	if isClient {
		ch.send, ch.recv = c2s, s2c
	} else {
		ch.send, ch.recv = s2c, c2s
	}
	return ch, nil
}

func deriveAEAD(shared []byte, label string) cipher.AEAD {
	key := sha256.Sum256(append(shared, []byte("relay-v1:"+label)...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		// AES-256 with a 32-byte key cannot fail; treat as programmer error.
		panic(fmt.Sprintf("relay: aes: %v", err))
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(fmt.Sprintf("relay: gcm: %v", err))
	}
	return aead
}

// Seal encrypts one payload into a new frame: seq(8) || ciphertext.
func (c *Channel) Seal(plaintext []byte) []byte { return c.SealAppend(nil, plaintext) }

// SealAppend appends to dst the frame sealing plaintext, seq(8) ||
// ciphertext, and returns the extended slice. It allocates only when
// dst lacks the capacity, so a caller that hands back the buffer it got
// seals without allocating. plaintext must not overlap dst's spare
// capacity.
func (c *Channel) SealAppend(dst, plaintext []byte) []byte {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.sendSeq++
	binary.BigEndian.PutUint64(c.sendNonce[4:], c.sendSeq)
	dst = slices.Grow(dst, frameOverhead+len(plaintext))
	hdr := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, c.sendSeq)
	return c.send.Seal(dst, c.sendNonce[:], plaintext, dst[hdr:])
}

// Open authenticates and decrypts a frame into a new plaintext,
// enforcing strictly increasing sequence numbers (replay protection).
func (c *Channel) Open(frame []byte) ([]byte, error) { return c.OpenAppend(nil, frame) }

// OpenAppend authenticates frame, appends its plaintext to dst and
// returns the extended slice; like SealAppend it allocates only when dst
// lacks the capacity. The frame's sequence number must exceed every one
// this channel opened before (replay protection). Authentication, the
// check and the advance happen under one lock, so of any number of
// concurrent opens of one frame exactly one succeeds. On error it
// returns nil and leaves dst's contents as they were.
func (c *Channel) OpenAppend(dst, frame []byte) ([]byte, error) {
	if len(frame) < frameOverhead {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(frame))
	}
	seq := binary.BigEndian.Uint64(frame[:8])
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	binary.BigEndian.PutUint64(c.recvNonce[4:], seq)
	out, err := c.recv.Open(dst, c.recvNonce[:], frame[8:], frame[:8])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if seq <= c.recvSeen {
		clear(out[len(dst):])
		return nil, fmt.Errorf("%w: seq %d after %d", ErrReplay, seq, c.recvSeen)
	}
	c.recvSeen = seq
	return out, nil
}

// Event is one AVS-style message to the cloud service.
type Event struct {
	Namespace  string   `json:"namespace"`
	Name       string   `json:"name"`
	MessageID  uint64   `json:"messageId"`
	Transcript []string `json:"transcript,omitempty"`
	Audio      []byte   `json:"audio,omitempty"`
	Redacted   int      `json:"redacted,omitempty"`
}

// Recognize event names used by the pipeline.
const (
	NamespaceSpeech  = "SpeechRecognizer"
	NameTranscript   = "Recognize.Transcript"
	NameAudio        = "Recognize.Audio"
	NamespaceSystem  = "System"
	NameAckDirective = "Directive.Ack"
)

// EncodeEvent returns an event's wire form in a new buffer. It never
// fails; see AppendEvent.
func EncodeEvent(e Event) ([]byte, error) { return AppendEvent(nil, e), nil }

// AppendEvent appends e's wire form to dst and returns the extended
// slice: exactly the bytes json.Marshal gives for e (no trailing
// newline), written field by field without reflection, so an event
// encoded into a reused buffer allocates nothing.
func AppendEvent(dst []byte, e Event) []byte {
	dst = append(dst, `{"namespace":`...)
	dst = appendJSONString(dst, e.Namespace)
	dst = append(dst, `,"name":`...)
	dst = appendJSONString(dst, e.Name)
	dst = append(dst, `,"messageId":`...)
	dst = strconv.AppendUint(dst, e.MessageID, 10)
	if len(e.Transcript) > 0 {
		dst = append(dst, `,"transcript":[`...)
		for i, tok := range e.Transcript {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, tok)
		}
		dst = append(dst, ']')
	}
	if len(e.Audio) > 0 {
		dst = append(dst, `,"audio":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, e.Audio)
		dst = append(dst, '"')
	}
	if e.Redacted != 0 {
		dst = append(dst, `,"redacted":`...)
		dst = strconv.AppendInt(dst, int64(e.Redacted), 10)
	}
	return append(dst, '}')
}

// appendJSONString appends s as encoding/json writes a string under its
// default HTML escaping: quotes, backslashes, control bytes, '<', '>'
// and '&' escaped, invalid UTF-8 replaced by \ufffd, and U+2028 and
// U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// DecodeEvent unmarshals an event.
func DecodeEvent(data []byte) (Event, error) {
	var e Event
	if err := DecodeEventInto(&e, data); err != nil {
		return Event{}, err
	}
	return e, nil
}

// DecodeEventInto unmarshals an event into *e, overwriting every field
// and reusing the capacity of e's transcript slice; a decoder that keeps
// one Event decodes without allocating the event or its token slice.
func DecodeEventInto(e *Event, data []byte) error {
	*e = Event{Transcript: e.Transcript[:0]}
	if err := json.Unmarshal(data, e); err != nil {
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return nil
}

// Policy selects what the relay does with utterances the classifier flags.
type Policy int

const (
	// PolicyPassThrough forwards everything (the insecure baseline).
	PolicyPassThrough Policy = iota + 1
	// PolicyRedact replaces private tokens and forwards the rest.
	PolicyRedact
	// PolicyBlock drops flagged utterances entirely.
	PolicyBlock
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicyPassThrough:
		return "pass-through"
	case PolicyRedact:
		return "redact"
	case PolicyBlock:
		return "block"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// RedactedToken is the placeholder substituted for private tokens.
const RedactedToken = "[redacted]"

// FilterResult reports what the policy did to one utterance.
type FilterResult struct {
	Forward  bool
	Tokens   []string
	Redacted int
}

// ApplyPolicy filters a transcript the classifier labelled with flagged.
// Redaction removes lexicon tokens; if the classifier flags an utterance
// in which no lexicon token is found (a generalization catch), redaction
// falls back to blocking — fail closed.
func ApplyPolicy(p Policy, flagged bool, tokens []string) (FilterResult, error) {
	switch p {
	case PolicyPassThrough:
		return FilterResult{Forward: true, Tokens: tokens}, nil
	case PolicyBlock:
		if flagged {
			return FilterResult{Forward: false}, nil
		}
		return FilterResult{Forward: true, Tokens: tokens}, nil
	case PolicyRedact:
		if !flagged {
			return FilterResult{Forward: true, Tokens: tokens}, nil
		}
		out := make([]string, len(tokens))
		redacted := 0
		for i, tok := range tokens {
			if sensitive.IsSensitiveWord(tok) {
				out[i] = RedactedToken
				redacted++
			} else {
				out[i] = tok
			}
		}
		if redacted == 0 {
			// Classifier caught something the lexicon missed: fail closed.
			return FilterResult{Forward: false}, nil
		}
		return FilterResult{Forward: true, Tokens: out, Redacted: redacted}, nil
	default:
		return FilterResult{}, fmt.Errorf("%w: %d", ErrBadPolicy, int(p))
	}
}

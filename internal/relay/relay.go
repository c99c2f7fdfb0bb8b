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
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

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
type Channel struct {
	send cipher.AEAD
	recv cipher.AEAD

	mu       sync.Mutex
	sendSeq  uint64
	recvSeen uint64
}

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

// Seal encrypts one payload into a frame: seq(8) || ciphertext.
func (c *Channel) Seal(plaintext []byte) []byte {
	c.mu.Lock()
	c.sendSeq++
	seq := c.sendSeq
	c.mu.Unlock()
	nonce := make([]byte, 12)
	binary.BigEndian.PutUint64(nonce[4:], seq)
	frame := make([]byte, 8, 8+len(plaintext)+16)
	binary.BigEndian.PutUint64(frame, seq)
	return c.send.Seal(frame, nonce, plaintext, frame[:8])
}

// Open authenticates and decrypts a frame, enforcing strictly increasing
// sequence numbers (replay protection).
func (c *Channel) Open(frame []byte) ([]byte, error) {
	if len(frame) < 8+16 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadFrame, len(frame))
	}
	seq := binary.BigEndian.Uint64(frame[:8])
	c.mu.Lock()
	if seq <= c.recvSeen {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: seq %d after %d", ErrReplay, seq, c.recvSeen)
	}
	c.mu.Unlock()
	nonce := make([]byte, 12)
	binary.BigEndian.PutUint64(nonce[4:], seq)
	plain, err := c.recv.Open(nil, nonce, frame[8:], frame[:8])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	c.mu.Lock()
	if seq > c.recvSeen {
		c.recvSeen = seq
	}
	c.mu.Unlock()
	return plain, nil
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

// EncodeEvent marshals an event to its wire form.
func EncodeEvent(e Event) ([]byte, error) {
	out, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("relay event: %w", err)
	}
	return out, nil
}

// DecodeEvent unmarshals an event.
func DecodeEvent(data []byte) (Event, error) {
	var e Event
	if err := json.Unmarshal(data, &e); err != nil {
		return Event{}, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	return e, nil
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

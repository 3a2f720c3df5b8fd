"""Architecture identifiers and hyperparameter bundles."""

from __future__ import annotations

from dataclasses import asdict, dataclass

ARCHITECTURES = (
    "bilstm_attn",
    "bilstm_noattn",
    "unilstm_attn",
    "unilstm_noattn",
    "transformer",
)

LSTM_ARCHITECTURES = ARCHITECTURES[:4]


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters for one model.

    The LSTM family reads emb/hidden/attn/enc_layers; the transformer reads
    d_model/ffn_dim/heads/enc_blocks/dec_blocks.  Defaults reproduce the
    published model sizes at inflection-sized vocabularies.
    """

    arch: str
    vocab_size: int
    emb_dim: int = 300
    hidden_dim: int = 100
    attn_dim: int = 100
    enc_layers: int = 2
    d_model: int = 256
    ffn_dim: int = 1024
    heads: int = 4
    enc_blocks: int = 4
    dec_blocks: int = 4
    dropout: float = 0.3

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}, expected one of {ARCHITECTURES}")
        if self.vocab_size < 4:
            raise ValueError("vocab_size must cover pad/start/end plus at least one symbol")
        sizes = ("emb_dim", "hidden_dim", "attn_dim", "enc_layers", "d_model", "ffn_dim",
                 "heads", "enc_blocks", "dec_blocks")
        # type, not isinstance: True and False are ints too
        bad = [n for n in sizes if type(getattr(self, n)) is not int or getattr(self, n) < 1]
        if bad:
            raise ValueError(f"{', '.join(bad)} must be integers >= 1")
        if self.d_model % self.heads != 0:
            raise ValueError(f"heads ({self.heads}) must divide d_model ({self.d_model})")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def bidirectional(self) -> bool:
        return self.arch.startswith("bilstm")

    @property
    def attention(self) -> bool:
        return self.arch.endswith("_attn")

    def to_dict(self) -> dict:
        return asdict(self)

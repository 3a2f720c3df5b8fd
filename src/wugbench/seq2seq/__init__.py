"""Character-level encoder-decoder architectures."""

from .config import ARCHITECTURES, LSTM_ARCHITECTURES, ModelConfig
from .lstm import LSTMSeq2Seq
from .model import DecodeState, build_model, count_parameters
from .transformer import TransformerSeq2Seq, positional_encoding

__all__ = [
    "ARCHITECTURES",
    "LSTM_ARCHITECTURES",
    "DecodeState",
    "LSTMSeq2Seq",
    "ModelConfig",
    "TransformerSeq2Seq",
    "build_model",
    "count_parameters",
    "positional_encoding",
]

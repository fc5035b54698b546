"""Siamese term-goodness classifier: network, pairing, training, inference."""

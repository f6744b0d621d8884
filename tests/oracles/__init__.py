"""Reference implementations the fast production paths are tested against."""

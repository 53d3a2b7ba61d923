"""The one base of the package's immutable records."""


def _restore(cls, values):
    """A `cls` whose slots hold `values`, in slot order; the constructor of
    `cls` does not run."""
    record = object.__new__(cls)
    Record.__init__(record, *values)
    return record


class Record:
    """Immutable record whose fields are its class's `__slots__`.

    Fields are given positionally in slot order or by name; a field given
    neither way takes its value from the class's `_defaults`.  Records compare
    and hash by identity unless the subclass defines otherwise.  They copy
    and pickle as their stored slots, which are restored as they are, so a
    subclass whose constructor takes other arguments needs no override.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls.__slots__
        if kwargs or len(args) != len(fields):  # all-positional calls skip this
            name = cls.__name__
            if len(args) > len(fields):
                raise TypeError(f"{name} takes {len(fields)} fields {fields}, "
                                f"got {len(args)} positional arguments")
            for key in kwargs:
                if key not in fields:
                    raise TypeError(f"{name} has no field {key!r}")
                if fields.index(key) < len(args):
                    raise TypeError(f"{name} got field {key!r} twice")
            args = list(args)
            for field in fields[len(args):]:
                if field in kwargs:
                    args.append(kwargs[field])
                elif field in cls._defaults:
                    args.append(cls._defaults[field])
                else:
                    raise TypeError(f"{name} is missing field {field!r}")
        for field, value in zip(fields, args):
            object.__setattr__(self, field, value)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # the default slot-state restore would call __setattr__
        cls = type(self)
        return _restore, (cls, tuple([getattr(self, field) for field in cls.__slots__]))
